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
// -on-error picks the sweep failure policy, -spec-timeout bounds each run,
// and -journal/-resume drive the write-ahead sweep journal.
type Flags struct {
	Parallel    int
	CacheDir    string
	OnError     string
	SpecTimeout time.Duration
	JournalPath string
	Resume      bool

	// Remote, when set before Engine, routes cache-miss specs
	// through a remote executor (see internal/dist). It has no flag of
	// its own: the tools that support distribution construct the
	// executor from their own flags (-workers) and inject it here.
	Remote Executor
	// Store, when set before Engine, attaches a shared remote
	// artifact cache (read-through after disk misses, asynchronous
	// write-behind after fresh runs). Like Remote it has no flag of its
	// own; the distributed tools construct and inject it.
	Store CacheStore
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
	fs.StringVar(&f.JournalPath, "journal", "",
		"write-ahead sweep journal recording completed runs (empty: disabled)")
	fs.BoolVar(&f.Resume, "resume", false,
		"resume from the journal instead of starting fresh (requires -journal and -cache-dir)")
	return f
}

// Engine builds the engine the flags describe, observed by ob: stages are
// traced, counters exported, progress tracked. A nil observer
// (observability flags all off) observes nothing. The caller owns the
// engine's Close (which releases the journal).
func (f *Flags) Engine(ob *obs.Observer) (*Engine, error) {
	onError, err := ParseOnError(f.OnError)
	if err != nil {
		return nil, cli.Usagef("-on-error: %v", err)
	}
	if f.Resume && f.JournalPath == "" {
		return nil, cli.Usagef("-resume requires -journal")
	}
	if f.Resume && f.CacheDir == "" {
		// The journal proves completion; the disk cache holds the
		// artifacts. Resuming without the cache would silently re-run
		// everything, which is worse than saying so.
		return nil, cli.Usagef("-resume requires -cache-dir (the journal records keys, the cache holds the artifacts)")
	}
	var journal *Journal
	if f.JournalPath != "" {
		journal, err = OpenJournal(f.JournalPath, f.Resume)
		if err != nil {
			return nil, err
		}
	}
	eng, err := New(Options{
		Parallel:    f.Parallel,
		CacheDir:    f.CacheDir,
		OnError:     onError,
		SpecTimeout: f.SpecTimeout,
		Journal:     journal,
		Remote:      f.Remote,
		Store:       f.Store,
		Obs:         ob,
	})
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		return nil, err
	}
	return eng, nil
}
