package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"commchar/internal/mesh"
)

// ParseDims parses a comma-separated dimension list such as "4,4,4", the
// shared syntax of every tool's -dims flag. An empty string means "derive
// the shape from the processor count" and parses to nil.
func ParseDims(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("core: bad dimension %q (want positive integers, e.g. 4,4,4)", p)
		}
		dims = append(dims, n)
	}
	return dims, nil
}

// TopologyNames lists the fabric selectors accepted by TopologyFor, in
// display order. The empty selector means "mesh".
func TopologyNames() []string {
	names := make([]string, 0, len(topologyBuilders))
	for name := range topologyBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// topologyBuilders maps a selector to its fabric kind and the shape that
// kind takes by default for n processors: the smallest standard instance
// that fits n.
var topologyBuilders = map[string]struct {
	kind mesh.Kind
	dims func(procs int) []int
}{
	"mesh":      {mesh.MeshTopology, mesh.DefaultGrid},
	"torus":     {mesh.TorusTopology, cube(2)},
	"torus3d":   {mesh.TorusTopology, cube(3)},
	"torus4d":   {mesh.TorusTopology, cube(4)},
	"hypercube": {mesh.HypercubeTopology, hypercubeDims},
	"fattree":   {mesh.FatTreeTopology, fattreeDims},
	"dragonfly": {mesh.DragonflyTopology, dragonflyDims},
}

// TopologyFor returns the reproduction's standard machine configuration
// for the named fabric and processor count. The empty name selects the
// default 2-D mesh, mesh.DefaultGrid(procs). dims, when non-nil, pins the
// fabric's shape instead of deriving it, in the per-kind convention of
// mesh.Config. The returned config always has at least procs endpoints; a
// shape that cannot hold procs is an error.
func TopologyFor(name string, dims []int, procs int) (mesh.Config, error) {
	if name == "" {
		name = "mesh"
	}
	b, ok := topologyBuilders[name]
	if !ok {
		return mesh.Config{}, fmt.Errorf("core: unknown topology %q (have %s)",
			name, strings.Join(TopologyNames(), ", "))
	}
	if dims == nil {
		dims = b.dims(procs)
	}
	cfg := mesh.DefaultConfig(b.kind, dims...)
	if err := cfg.Validate(); err != nil {
		return mesh.Config{}, err
	}
	if fab := cfg.Fabric(); fab.Endpoints() < procs {
		return mesh.Config{}, fmt.Errorf("core: %s has %d endpoints, too small for %d processors",
			fab.Name(), fab.Endpoints(), procs)
	}
	return cfg, nil
}

// cube sizes an n-dimensional torus: the smallest k^n with k >= 2 that
// holds procs.
func cube(n int) func(procs int) []int {
	return func(procs int) []int {
		k := 2
		for pow(k, n) < procs {
			k++
		}
		dims := make([]int, n)
		for i := range dims {
			dims[i] = k
		}
		return dims
	}
}

// hypercubeDims is the smallest binary d-cube, d >= 1, that holds procs.
func hypercubeDims(procs int) []int {
	d := 1
	for 1<<d < procs {
		d++
	}
	return []int{d}
}

// fattreeDims is a 4-ary tree just deep enough for procs.
func fattreeDims(procs int) []int {
	const arity = 4
	levels := 1
	for pow(arity, levels) < procs {
		levels++
	}
	return []int{arity, levels}
}

// dragonflyDims is h=1 with the smallest group size a such that
// a*(a+1) >= procs.
func dragonflyDims(procs int) []int {
	a := 2
	for a*(a+1) < procs {
		a++
	}
	return []int{a, 1}
}

func pow(base, exp int) int {
	n := 1
	for i := 0; i < exp; i++ {
		n *= base
	}
	return n
}
