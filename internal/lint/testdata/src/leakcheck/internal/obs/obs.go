// Package obs is the leakcheck declaring-side fixture: a handle
// constructor, known to importers from its export data, and an eternal
// loop whose UncancellableLoop fact must cross into importing packages.
package obs

// Server is a debug endpoint handle.
type Server struct{ closed bool }

// Ping probes the endpoint.
func (s *Server) Ping() {}

// Close releases the listener.
func (s *Server) Close() { s.closed = true }

// StartServer starts the debug endpoint; the caller owns the handle.
func StartServer() *Server {
	return &Server{}
}

// Pump drains the internal queue for the life of the process.
func Pump() { // want fact:"Pump: UncancellableLoop"
	for {
	}
}
