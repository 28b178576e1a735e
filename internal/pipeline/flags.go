package pipeline

import (
	"flag"
	"runtime"
	"time"

	"commchar/internal/cli"
	"commchar/internal/obs"
)

// Flags is the uniform pipeline flag set shared by every cmd/ tool:
// -parallel bounds concurrent runs, -cache-dir enables the on-disk cache,
// -on-error picks the sweep failure policy, and -spec-timeout bounds each
// run. An interrupted sweep resumes by rerunning it with the same
// -cache-dir: finished runs are disk-cache hits.
type Flags struct {
	Parallel    int
	CacheDir    string
	OnError     string
	SpecTimeout time.Duration

	// Remote, when set before Engine, routes cache-miss specs
	// through a remote executor (see internal/dist). It has no flag of
	// its own: sweepd -coordinator and characterize -dist-listen serve a
	// dist.Coordinator and inject it here, and CacheDir is then the
	// fleet's shared artifact store.
	Remote Executor
}

// AddFlags registers the pipeline flags on a flag set.
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
	return f
}

// Engine builds the engine the flags describe, observed by ob: stages are
// traced, counters exported, progress tracked. A nil observer
// (observability flags all off) observes nothing.
func (f *Flags) Engine(ob *obs.Observer) (*Engine, error) {
	onError, err := ParseOnError(f.OnError)
	if err != nil {
		return nil, cli.Usagef("-on-error: %v", err)
	}
	return New(Options{
		Parallel:    f.Parallel,
		CacheDir:    f.CacheDir,
		OnError:     onError,
		SpecTimeout: f.SpecTimeout,
		Remote:      f.Remote,
		Obs:         ob,
	})
}
