// Package spasm is the execution-driven simulation framework of the
// paper's dynamic strategy, in the role of SPASM [8]. Shared-memory
// applications are Go kernels executing on simulated processors; exactly as
// in SPASM, ordinary computation runs at native speed and only the
// "interesting" operations are simulated: shared LOADs and STOREs (which
// run the full CC-NUMA coherence protocol through the 2-D mesh), explicit
// compute delays, and synchronization (barriers and locks, which are
// message-based and therefore also appear in the network log).
//
// The network simulator feeds timing back into the application as each
// communication event completes — the execution-driven feedback loop the
// paper contrasts with trace-driven simulation.
package spasm

import (
	"fmt"

	"commchar/internal/ccnuma"
	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// BarrierKind selects the barrier algorithm.
type BarrierKind int

const (
	// BarrierLinear gathers at and releases from processor 0 — the
	// flat scheme that makes p0 a spatial favorite.
	BarrierLinear BarrierKind = iota
	// BarrierTree gathers and releases along a binary tree rooted at
	// processor 0, spreading the synchronization traffic.
	BarrierTree
)

// Config assembles the simulated machine.
type Config struct {
	Processors int
	Mesh       mesh.Config
	Memory     ccnuma.Config
	Barrier    BarrierKind
}

// DefaultConfig builds the reproduction's machine for n processors on the
// standard mesh, mesh.DefaultGrid(n).
func DefaultConfig(n int) Config {
	return Config{
		Processors: n,
		Mesh:       mesh.DefaultConfig(mesh.MeshTopology, mesh.DefaultGrid(n)...),
		Memory:     ccnuma.DefaultConfig(n),
	}
}

// Machine is one simulated CC-NUMA multiprocessor.
type Machine struct {
	Sim *sim.Simulator
	Net *mesh.Network
	Mem *ccnuma.System

	cfg  Config
	envs []*Env

	bar      barrierState
	locks    map[int]*lockState
	freeSync *syncMsg // delivered sync messages, reused by send
}

// New builds a machine. It panics on inconsistent configuration (a
// programming error).
func New(cfg Config) *Machine {
	if cfg.Processors < 1 {
		panic(fmt.Sprintf("spasm: %d processors", cfg.Processors))
	}
	if cfg.Memory.Processors != cfg.Processors {
		panic("spasm: memory config processor count mismatch")
	}
	s := sim.New()
	net := mesh.New(s, cfg.Mesh)
	if ep := net.Topology().Endpoints(); ep < cfg.Processors {
		panic(fmt.Sprintf("spasm: %d processors on %d-node mesh", cfg.Processors, ep))
	}
	m := &Machine{
		Sim:   s,
		Net:   net,
		Mem:   ccnuma.New(s, net, cfg.Memory),
		cfg:   cfg,
		locks: map[int]*lockState{},
	}
	m.bar.pendingRelease = make([]int, cfg.Processors)
	return m
}

// NewDefault builds the default machine for n processors.
func NewDefault(n int) *Machine { return New(DefaultConfig(n)) }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Alloc reserves shared address space (see ccnuma.System.Alloc).
func (m *Machine) Alloc(size int) uint64 { return m.Mem.Alloc(size) }

// Array is an addressing helper for a shared array of fixed-size elements.
type Array struct {
	base   uint64
	stride uint64
	n      int
}

// NewArray allocates a shared array of n elements of elemBytes each.
func (m *Machine) NewArray(n, elemBytes int) Array {
	if n <= 0 || elemBytes <= 0 {
		panic(fmt.Sprintf("spasm: NewArray(%d, %d)", n, elemBytes))
	}
	return Array{base: m.Alloc(n * elemBytes), stride: uint64(elemBytes), n: n}
}

// Addr returns the address of element i.
func (a Array) Addr(i int) uint64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("spasm: array index %d out of [0,%d)", i, a.n))
	}
	return a.base + uint64(i)*a.stride
}

// Len returns the element count.
func (a Array) Len() int { return a.n }

// Run executes the SPMD kernel on every processor and returns the simulated
// makespan. If any processor is still blocked when the event calendar
// drains (an application synchronization bug), it fails with the kernel's
// *sim.DeadlockError naming the blocked processors.
func (m *Machine) Run(kernel func(e *Env)) (sim.Time, error) {
	m.envs = make([]*Env, m.cfg.Processors)
	for i := 0; i < m.cfg.Processors; i++ {
		i := i
		env := &Env{m: m, id: i}
		m.envs[i] = env
		env.prof.Proc = i
		m.Sim.Spawn(fmt.Sprintf("proc%d", i), func(p *sim.Process) {
			env.p = p
			kernel(env)
			env.prof.End = p.Now()
		})
	}
	if err := m.Sim.Run(); err != nil {
		return 0, fmt.Errorf("spasm: %w", err)
	}
	return m.Sim.Now(), nil
}

// Profile is the execution-time breakdown of one processor — the classic
// SPASM output separating computation from memory-system stalls and
// synchronization stalls.
type Profile struct {
	Proc    int
	Compute sim.Duration // explicit local work
	Memory  sim.Duration // shared-memory access time (hits and misses)
	Sync    sim.Duration // barriers and locks
	End     sim.Time     // when the kernel returned on this processor
}

// Busy is the sum of all accounted time.
func (pr Profile) Busy() sim.Duration { return pr.Compute + pr.Memory + pr.Sync }

// Profiles returns the per-processor execution breakdown of the last Run.
func (m *Machine) Profiles() []Profile {
	out := make([]Profile, len(m.envs))
	for i, e := range m.envs {
		out[i] = e.prof
	}
	return out
}

// Env is the per-processor view an application kernel programs against.
type Env struct {
	m    *Machine
	p    *sim.Process
	id   int
	prof Profile
}

// ID returns the processor number.
func (e *Env) ID() int { return e.id }

// N returns the machine size.
func (e *Env) N() int { return e.m.cfg.Processors }

// Now returns the processor's local simulated time.
func (e *Env) Now() sim.Time { return e.p.Now() }

// Compute advances the processor's clock by purely local work.
func (e *Env) Compute(d sim.Duration) {
	e.p.Hold(d)
	e.prof.Compute += d
}

// Read performs a shared-memory load at addr (full coherence semantics).
func (e *Env) Read(addr uint64) {
	t0 := e.p.Now()
	e.m.Mem.Read(e.p, e.id, addr)
	e.prof.Memory += sim.Duration(e.p.Now() - t0)
}

// Write performs a shared-memory store at addr.
func (e *Env) Write(addr uint64) {
	t0 := e.p.Now()
	e.m.Mem.Write(e.p, e.id, addr)
	e.prof.Memory += sim.Duration(e.p.Now() - t0)
}

// ReadArray loads element i of a shared array.
func (e *Env) ReadArray(a Array, i int) { e.Read(a.Addr(i)) }

// WriteArray stores element i of a shared array.
func (e *Env) WriteArray(a Array, i int) { e.Write(a.Addr(i)) }
