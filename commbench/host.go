package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU VM the same op took from
// 0.65x to 1.4x its median time over minutes, which no amount of averaging
// inside one run removes. Every host time the benchmark reports is
// therefore scaled to a reference host by the speed a probe measures over
// the same interval: every probeEvery, a goroutine times probeIters rounds
// of a fixed kernel, and a time t becomes t * probeRef / median(kernel
// time). The kernel allocates nothing and calls no commchar code, so no
// change to the program moves it, and it takes about 2% of one processor.
// Simulated quantities and counts are never scaled.

// probeRef is the kernel's time on the reference host (Intel Xeon VM, 2
// vCPUs, Go 1.24).
const (
	probeEvery = 20 * time.Millisecond
	probeIters = 24
	probeRef   = 700 * time.Microsecond
)

// probe is a running host-speed probe.
type probe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // kernel times, ns
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			probeKernel()
			p.samples = append(p.samples, float64(time.Since(t0)))
		}
	}()
	return p
}

// probeKernel is floating-point special functions and a sort over a fixed
// buffer.
func probeKernel() {
	var buf [256]float64
	for i := range probeIters {
		for j := range buf {
			x := float64(j + 1)
			buf[j] = math.Exp(-x/float64(i%97+1)) + math.Log(x) + math.Pow(x, 0.37)
		}
		slices.Sort(buf[:])
	}
}

// finish stops the probe and returns the factor that scales host times
// measured while it ran to the reference host: below 1 when the host ran
// slower than the reference.
func (p *probe) finish() float64 {
	close(p.stop)
	<-p.done
	if len(p.samples) == 0 {
		return 1 // too short an interval to probe; such times are tiny
	}
	return float64(probeRef) / median(p.samples)
}

// peakRSS reads the process's resident-set high-water mark (VmHWM).
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

func environment(o options, res *result) map[string]any {
	return map[string]any{
		"host_speed":       res.runSpeed,
		"setup_host_speed": res.setupSpeed,
		"workload":         o.workload,
		"seed":             o.seed,
		"seconds":          o.seconds,
		"trace":            o.trace,
		"short":            o.short,
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"cpu":              cpuModel(),
		"commit":           os.Getenv("COMMBENCH_COMMIT"),
		"source":           sourceDigest(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and module files, which
// identifies the measured code in a checkout that is not a git repository.
func sourceDigest() string {
	var all []byte
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			if b, err := os.ReadFile(path); err == nil {
				all = append(all, path...)
				all = append(all, b...)
			}
		}
		return nil
	})
	return digestBytes(all)
}
