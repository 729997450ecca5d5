package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
)

// relay is a loopback TCP proxy between the traced worker and the service.
// It counts the bytes and the length-prefixed frames the cluster protocol
// sends in both directions.
type relay struct {
	ln     net.Listener
	target string
	frames atomic.Int64
	bytes  atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

// startRelay listens on a loopback port and forwards every connection to
// target.
func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		down, err := r.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", r.target)
		if err != nil {
			down.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		r.conns = append(r.conns, down, up)
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pipe(up, down)
		go r.pipe(down, up)
	}
}

// pipe copies src to dst, counting bytes and frame headers, and closes
// both ends when either side stops.
func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	defer dst.Close()
	defer src.Close()
	var hdr [4]byte
	have, body := 0, uint32(0) // header bytes seen; body bytes still to come
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		for b := buf[:n]; len(b) > 0; {
			if body > 0 {
				k := min(uint32(len(b)), body)
				body -= k
				b = b[k:]
				continue
			}
			k := copy(hdr[have:], b)
			have += k
			b = b[k:]
			if have == len(hdr) {
				r.frames.Add(1)
				body, have = binary.BigEndian.Uint32(hdr[:]), 0
			}
		}
		r.bytes.Add(int64(n))
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// stop closes the listener and every relayed connection and waits for the
// relay's goroutines to exit.
func (r *relay) stop() {
	r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
