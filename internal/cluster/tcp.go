package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
)

// tcpTransport connects P workers in a full mesh over loopback TCP. Each
// ordered worker pair shares one connection (established by the lower-ID
// side dialing the higher). Per round, every worker writes exactly one
// frame to every peer — [round uint32][count uint32][count × Message] — and
// reads exactly one frame from every peer, so no end-of-round marker is
// needed and the frame count itself forms the barrier.
//
// Reads and writes run concurrently per peer; a round's frames fit the
// kernel socket buffers only for small batches, so overlapping the two
// directions is what prevents write-write deadlock on large rounds.
type tcpTransport struct {
	p     int
	links [][]*link // links[w][q] = worker w's end of its link to q (nil for w==q)
	round uint32
}

// link is one worker's end of a mesh connection: buffered both ways, with
// its own decoder so reading a frame reuses one staging buffer.
type link struct {
	conn net.Conn
	rd   *bufio.Reader
	wr   *bufio.Writer
	dec  decoder
}

func newTCPTransport(p int) (*tcpTransport, error) {
	t := &tcpTransport{p: p, links: make([][]*link, p)}
	for w := range t.links {
		t.links[w] = make([]*link, p)
	}

	// One listener per worker; worker i dials every j > i and announces
	// itself with a 4-byte hello.
	listeners := make([]net.Listener, p)
	for w := 0; w < p; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: listen for worker %d: %w", w, err)
		}
		listeners[w] = ln
	}
	var wg sync.WaitGroup
	errs := make(chan error, p*p)
	for w := 0; w < p; w++ {
		w := w
		// Accept connections from all lower-numbered workers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < w; k++ {
				conn, err := listeners[w].Accept()
				if err != nil {
					errs <- err
					return
				}
				var hello [4]byte
				if _, err := readFull(conn, hello[:]); err != nil {
					errs <- err
					return
				}
				from := int(binary.LittleEndian.Uint32(hello[:]))
				t.install(w, from, conn)
			}
		}()
		// Dial all higher-numbered workers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := w + 1; q < p; q++ {
				conn, err := net.Dial("tcp", listeners[q].Addr().String())
				if err != nil {
					errs <- err
					return
				}
				var hello [4]byte
				binary.LittleEndian.PutUint32(hello[:], uint32(w))
				if _, err := conn.Write(hello[:]); err != nil {
					errs <- err
					return
				}
				t.install(w, q, conn)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for w := range listeners {
		listeners[w].Close()
	}
	if err, ok := <-errs; ok && err != nil {
		t.Close()
		return nil, fmt.Errorf("cluster: tcp mesh setup: %w", err)
	}
	return t, nil
}

// install registers the connection endpoint owned by worker w talking to
// peer q.
func (t *tcpTransport) install(w, q int, conn net.Conn) {
	t.links[w][q] = &link{
		conn: conn,
		rd:   bufio.NewReaderSize(conn, 1<<16),
		wr:   bufio.NewWriterSize(conn, 1<<16),
	}
}

func (t *tcpTransport) Exchange(out [][][]Message) ([][]Message, error) {
	round := t.round
	t.round++
	in := make([][]Message, t.p)
	errCh := make(chan error, 2*t.p)
	var wg sync.WaitGroup
	for w := 0; w < t.p; w++ {
		w := w
		// Writer side: one frame per peer.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < t.p; q++ {
				if q == w {
					continue
				}
				if err := writeFrame(t.links[w][q].wr, round, out[w][q]); err != nil {
					errCh <- fmt.Errorf("cluster: worker %d -> %d: %w", w, q, err)
					return
				}
			}
		}()
		// Reader side: one frame from every peer plus local loopback.
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := append([]Message(nil), out[w][w]...)
			for q := 0; q < t.p; q++ {
				if q == w {
					continue
				}
				l := t.links[w][q]
				ms, err := l.dec.readFrame(l.rd, round)
				if err != nil {
					errCh <- fmt.Errorf("cluster: worker %d <- %d: %w", w, q, err)
					return
				}
				batch = append(batch, ms...)
			}
			in[w] = batch
		}()
	}
	wg.Wait()
	close(errCh)
	if err, ok := <-errCh; ok && err != nil {
		return nil, err
	}
	return in, nil
}

// writeFrame encodes one round's batch for one peer: an 8-byte frame
// header, then each message in the variable-length encoding of Message.
// Messages are encoded straight into w's spare buffer, which is flushed
// when the next one does not fit, so a frame allocates nothing unless a
// single message outgrows the whole buffer.
func writeFrame(w *bufio.Writer, round uint32, ms []Message) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], round)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(ms)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, m := range ms {
		if m.WireSize() > w.Available() {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		if _, err := w.Write(m.appendTo(w.AvailableBuffer())); err != nil {
			return err
		}
	}
	return w.Flush()
}

// readFrame reads one frame for the given round with a one-shot decoder.
func readFrame(r *bufio.Reader, round uint32) ([]Message, error) {
	return new(decoder).readFrame(r, round)
}

func (d *decoder) readFrame(r *bufio.Reader, round uint32) ([]Message, error) {
	hdr := d.stage[:8]
	if _, err := readFull(r, hdr); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(hdr[:4]); got != round {
		return nil, fmt.Errorf("frame for round %d, want %d", got, round)
	}
	count := binary.LittleEndian.Uint32(hdr[4:])
	if count == 0 {
		return nil, nil
	}
	ms := make([]Message, count)
	for i := range ms {
		m, err := d.decode(r)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

type reader interface{ Read([]byte) (int, error) }

func readFull(r reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := r.Read(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (t *tcpTransport) Close() error {
	// Each mesh link is a socket pair: the dialer's conn and the
	// acceptor's conn are distinct descriptors, so every non-nil entry
	// must be closed.
	var first error
	for w := range t.links {
		for q, l := range t.links[w] {
			if l != nil {
				if err := l.conn.Close(); err != nil && first == nil {
					first = err
				}
				t.links[w][q] = nil
			}
		}
	}
	return first
}
