// Package relay pins that lock keys do not cross packages: its
// Coordinator shares a name, and a mutex field name, with the one in
// lockorder/internal/dist, but holding this one's mu while calling into
// dist cannot re-acquire it.
package relay

import (
	"sync"

	"lockorder/internal/dist"
)

// Coordinator forwards expiries to an upstream coordinator.
type Coordinator struct {
	mu      sync.Mutex
	pending []string
	up      *dist.Coordinator
}

// Forward drops every pending lease upstream under its own lock; Drop
// takes dist's Coordinator.mu, a different mutex.
func (c *Coordinator) Forward() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.pending {
		c.up.Drop(id)
	}
	c.pending = nil
}
