package mesh_test

import (
	"strings"
	"testing"

	"commchar/internal/mesh"
	"commchar/internal/sim"
)

// TestValidateCaps checks the bounds Validate holds every configuration
// to so that a Delivery's narrow fields cannot overflow: at most
// mesh.MaxEndpoints (2^20) endpoints on every fabric, and at most 65535
// retries, with an uncapped backoff that cannot overflow over them. Sizes
// whose product overflows an int are rejected too, and every fabric of
// the engine digest table still validates.
func TestValidateCaps(t *testing.T) {
	withRetries := func(n int) mesh.Config {
		cfg := mesh.DefaultConfig(mesh.MeshTopology, 4, 4)
		cfg.MaxRetries = n
		return cfg
	}
	uncapped := func(base sim.Duration, n int) mesh.Config {
		cfg := withRetries(n)
		cfg.RetryBase, cfg.RetryCap = base, 0
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  mesh.Config
		want string // "" when the configuration is valid
	}{
		{"mesh 1024x1024", mesh.DefaultConfig(mesh.MeshTopology, 1024, 1024), ""},
		{"mesh 2048x1024", mesh.DefaultConfig(mesh.MeshTopology, 2048, 1024), "exceeds 2^20 endpoints"},
		{"mesh 2^40x2^40", mesh.DefaultConfig(mesh.MeshTopology, 1<<40, 1<<40), "exceeds 2^20 endpoints"},
		{"torus 2^10x2^10x2", mesh.DefaultConfig(mesh.TorusTopology, 1024, 1024, 2), "exceeds 2^20 endpoints"},
		{"hypercube 20", mesh.DefaultConfig(mesh.HypercubeTopology, 20), ""},
		{"fattree 2x20", mesh.DefaultConfig(mesh.FatTreeTopology, 2, 20), ""},
		{"fattree 2x21", mesh.DefaultConfig(mesh.FatTreeTopology, 2, 21), "exceeds 2^20 endpoints"},
		// 101 routers a group and 101 globals each: 101·(101·101+1) =
		// 1,030,402 endpoints; 102 and 101 give 1,050,906.
		{"dragonfly 101x101", mesh.DefaultConfig(mesh.DragonflyTopology, 101, 101), ""},
		{"dragonfly 102x101", mesh.DefaultConfig(mesh.DragonflyTopology, 102, 101), "exceeds 2^20 endpoints"},
		{"dragonfly 2x2^62", mesh.DefaultConfig(mesh.DragonflyTopology, 2, 1<<62), "exceeds 2^20 endpoints"},
		{"retries 65535", withRetries(65535), ""},
		{"retries 65536", withRetries(65536), "max retries 65536 invalid"},
		// Uncapped, 200 ns << 55 is about 7.2e18 ns and fits an int64;
		// << 56 does not. A zero base never overflows.
		{"uncapped 200ns x 55 retries", uncapped(200, 55), ""},
		{"uncapped 200ns x 56 retries", uncapped(200, 56), "uncapped retry backoff 200 << 56 max retries overflows"},
		{"uncapped 0ns x 65535 retries", uncapped(0, 65535), ""},
	} {
		err := c.cfg.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v, want valid", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want it to mention %q", c.name, err, c.want)
		}
	}
	for _, f := range goldenFabrics {
		if err := f.cfg().Validate(); err != nil {
			t.Errorf("digest fabric %s: %v", f.name, err)
		}
	}
}
