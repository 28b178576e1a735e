package sim

// Facility is a single server with an FCFS queue, modeled after CSIM's
// facility. Processes Reserve it, hold it for some service time, and
// Release it.
type Facility struct {
	name    string
	holder  *Process
	waiters []*Process
}

// NewFacility creates an idle facility.
func NewFacility(name string) *Facility {
	return &Facility{name: name}
}

// ResourceName implements Resource for deadlock diagnostics.
func (f *Facility) ResourceName() string { return "facility " + f.name }

// Holders implements Resource: the current holder, if any.
func (f *Facility) Holders() []*Process {
	if f.holder == nil {
		return nil
	}
	return []*Process{f.holder}
}

// Reserve acquires the facility for process p, blocking p in FCFS order if
// the server is busy.
func (f *Facility) Reserve(p *Process) {
	if f.holder == nil {
		f.holder = p
		return
	}
	f.waiters = append(f.waiters, p)
	p.SuspendOn(f)
	// Control returns here once Release has granted us the server.
}

// Release frees the facility and hands it to the head of the queue, if any.
// Only the holder may release.
func (f *Facility) Release(p *Process) {
	if f.holder == nil || f.holder != p {
		panic("sim: Release by non-holder of facility " + f.name)
	}
	f.holder = nil
	if len(f.waiters) > 0 {
		w := f.waiters[0]
		f.waiters = f.waiters[1:]
		f.holder = w
		WakerFor(w).Wake()
	}
}
