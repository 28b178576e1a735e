package mp

import "fmt"

// Request is a handle to an outstanding nonblocking operation. Wait
// completes it. Requests must be waited on exactly once.
type Request struct {
	rank    *Rank
	isRecv  bool
	src     int
	tag     int
	waited  bool
	bytes   int
	payload any
}

// Isend starts a nonblocking send. Sends in this library are buffered, so
// the data is already on its way when Isend returns; the request completes
// immediately. The sender-side software overhead is still charged (it is
// CPU work), matching how MPI_Isend costs behave on the SP2.
func (r *Rank) Isend(dst, tag, bytes int, payload any) *Request {
	r.Send(dst, tag, bytes, payload)
	return &Request{rank: r, isRecv: false}
}

// Irecv posts a nonblocking receive for a message from src with the given
// tag. No time passes and nothing blocks; the match happens at Wait, which
// is where the communication event is traced (that is when the processor
// actually synchronizes with the message).
func (r *Rank) Irecv(src, tag int) *Request {
	if src < 0 || src >= r.Size() {
		panic(fmt.Sprintf("mp: rank %d posts Irecv from %d", r.id, src))
	}
	return &Request{rank: r, isRecv: true, src: src, tag: tag}
}

// Wait blocks until the request completes and returns the received length
// and payload (zero values for send requests).
func (req *Request) Wait() (int, any) {
	if req.waited {
		panic("mp: Request waited on twice")
	}
	req.waited = true
	if !req.isRecv {
		return 0, nil
	}
	req.bytes, req.payload = req.rank.Recv(req.src, req.tag)
	return req.bytes, req.payload
}

// traceEventCount is a test hook: the number of events traced for a rank.
func (r *Rank) traceEventCount() int {
	return len(r.world.tr.Events[r.id])
}
