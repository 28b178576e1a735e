// Package dist is the lockorder consuming-side fixture, modeled on the
// coordinator's lease table: inconsistent acquisition order, sends and
// HTTP round-trips under a lock, self-deadlocking re-acquisition, and
// a cross-package Blocking fact.
package dist

import (
	"net/http"
	"sync"

	"lockorder/internal/store"
)

// Coordinator guards the lease table with two mutexes.
type Coordinator struct {
	mu     sync.Mutex
	tables sync.Mutex
	leases map[string]int
	ch     chan string
}

// Renew takes mu then tables: the canonical order.
func (c *Coordinator) Renew(id string) {
	c.mu.Lock()
	c.tables.Lock()
	c.leases[id]++
	c.tables.Unlock()
	c.mu.Unlock()
}

// Expire takes the same pair in the opposite order.
func (c *Coordinator) Expire(id string) {
	c.tables.Lock()
	c.mu.Lock() // want "lockorder: inconsistent lock order: Coordinator.mu and Coordinator.tables are acquired in both orders"
	delete(c.leases, id)
	c.mu.Unlock()
	c.tables.Unlock()
}

// Notify sends while still holding the lease lock.
func (c *Coordinator) Notify(id string) {
	c.mu.Lock()
	c.ch <- id // want "lockorder: sends on a channel while holding Coordinator.mu"
	c.mu.Unlock()
}

// NotifyRight releases before sending.
func (c *Coordinator) NotifyRight(id string) {
	c.mu.Lock()
	c.mu.Unlock()
	c.ch <- id
}

// Drop holds mu for its whole body via the deferred unlock.
func (c *Coordinator) Drop(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.leases, id)
}

// Sweep calls Drop with mu already held.
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	c.Drop("expired") // want "lockorder: call to dist.Coordinator.Drop re-acquires Coordinator.mu, which is already held here \\(self-deadlock\\)"
	c.mu.Unlock()
}

// Flush publishes under the lock; Publish's Blocking fact crossed the
// package boundary.
func (c *Coordinator) Flush(ch chan []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	store.Publish(ch, nil) // want "lockorder: call to store.Publish while holding Coordinator.mu: it sends on a channel"
}

// Audit also publishes under the lock, deliberately: the audit channel
// is buffered and drained by the same goroutine.
func (c *Coordinator) Audit(ch chan []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:allow lockorder the audit channel is buffered and drained by this goroutine
	store.Publish(ch, nil)
}

// Refresh performs a round-trip while holding the lease lock.
func (c *Coordinator) Refresh(cl *http.Client, url string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := cl.Get(url) // want "lockorder: performs an HTTP round-trip \\(net/http.Get\\) while holding Coordinator.mu"
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Watch sends from a dedicated goroutine; the closure is its own
// scope, so the send is not charged to Watch's held set.
func (c *Coordinator) Watch(id string) {
	c.mu.Lock()
	go func() {
		c.ch <- id
	}()
	c.mu.Unlock()
}
