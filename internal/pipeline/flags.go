package pipeline

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"commchar/internal/cli"
	"commchar/internal/obs"
)

// Flags is the flag set every cmd/ tool shares, and the one place a
// tool's engine is built and its exit work done. -parallel, -cache-dir,
// -on-error and -spec-timeout configure the engine; an interrupted sweep
// resumes by rerunning it over the same -cache-dir. -debug-addr,
// -trace-out, -events-out and -progress configure the observer, and
// -metrics prints the engine's counters on stderr at exit. A tool defers
// Close right after parsing, then calls Engine, or Observer first when
// something it builds before the engine needs the observer.
type Flags struct {
	Parallel    int
	CacheDir    string
	OnError     string
	SpecTimeout time.Duration

	DebugAddr string
	TraceOut  string
	EventsOut string
	Progress  bool
	Metrics   bool

	// Remote, when set before Engine, routes cache-miss specs
	// through a remote executor (see internal/dist). It has no flag of
	// its own: sweepd -coordinator and characterize -dist-listen serve a
	// dist.Coordinator and inject it here, and CacheDir is then the
	// fleet's shared artifact store.
	Remote Executor

	ob     *obs.Observer
	eng    *Engine
	stderr io.Writer
}

// AddFlags registers the shared flags on a flag set.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0),
		"max concurrent characterization runs")
	fs.StringVar(&f.CacheDir, "cache-dir", "",
		"content-addressed on-disk cache for characterization runs (empty: disabled)")
	fs.StringVar(&f.OnError, "on-error", "continue",
		"sweep failure policy: continue (finish remaining runs, report losses) or fail (cancel at first failure)")
	fs.DurationVar(&f.SpecTimeout, "spec-timeout", 0,
		"per-run wall-time deadline (0: unlimited)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve the debug endpoints (/metrics, /healthz, /progress, /events, /debug/pprof) on this address (empty: disabled)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a Chrome trace-event JSON timeline (engine spans + simulated message slices; load in Perfetto) to this file")
	fs.StringVar(&f.EventsOut, "events-out", "",
		"write the flight-recorder event log (JSON Lines) to this file")
	fs.BoolVar(&f.Progress, "progress", false,
		"report per-spec pipeline stage transitions on stderr")
	fs.BoolVar(&f.Metrics, "metrics", false,
		"print the pipeline metrics summary on stderr at exit")
	return f
}

// Observer builds the observer the flags describe, once: later calls
// return the same one. It starts the debug server when -debug-addr is set
// and echoes its bound address to stderr. With every observability flag
// off it returns nil — the nil observer is the documented no-op, so
// untraced runs skip all bookkeeping.
func (f *Flags) Observer(stderr io.Writer) (*obs.Observer, error) {
	if f.ob != nil || f.DebugAddr == "" && f.TraceOut == "" && f.EventsOut == "" && !f.Progress {
		return f.ob, nil
	}
	o := obs.NewObserver(obs.System())
	o.TracePath = f.TraceOut
	o.EventsPath = f.EventsOut
	if f.Progress {
		o.Progress.SetReporter(stderr)
	}
	if f.DebugAddr != "" {
		if err := o.ServeDebug(f.DebugAddr); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "debug server listening on http://%s\n", o.DebugAddr())
	}
	f.ob = o
	return o, nil
}

// Engine builds the engine the flags describe, observed by the flags'
// observer: stages are traced, counters exported, progress tracked.
func (f *Flags) Engine(stderr io.Writer) (*Engine, error) {
	ob, err := f.Observer(stderr)
	if err != nil {
		return nil, err
	}
	onError, err := ParseOnError(f.OnError)
	if err != nil {
		return nil, cli.Usagef("-on-error: %v", err)
	}
	eng, err := New(Options{
		Parallel:    f.Parallel,
		CacheDir:    f.CacheDir,
		OnError:     onError,
		SpecTimeout: f.SpecTimeout,
		Remote:      f.Remote,
		Obs:         ob,
	})
	if err != nil {
		return nil, err
	}
	f.eng, f.stderr = eng, stderr
	return eng, nil
}

// Close does a tool's exit work: it renders the -metrics summary of the
// engine, if one was built, and then closes the observer, if one was
// built, which writes -trace-out and -events-out and stops the debug
// server. The summary goes to stderr so stdout stays byte-identical
// across -parallel settings and cache states.
func (f *Flags) Close() error {
	if f.Metrics && f.eng != nil {
		f.eng.Metrics().Render(f.stderr)
	}
	return f.ob.Close()
}
