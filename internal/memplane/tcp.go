package memplane

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/memctl"
)

// The TCP wire protocol: a request is {op u8, buffer u64, offset i64,
// length u32} followed by length payload bytes for writes; a response is
// {status u8, ns i64, length u32} followed by length bytes (read payload, or
// the error text when status != 0). Latency stays simulated — the ns field
// carries the fabric charge computed on the serving side — so runs are
// deterministic regardless of real network jitter.
const (
	tcpOpRead  uint8 = 0
	tcpOpWrite uint8 = 1
)

type tcpRequest struct {
	Op     uint8
	Buffer uint64
	Offset int64
	Length uint32
}

type tcpResponse struct {
	Status uint8
	Ns     int64
	Length uint32
}

// TCPServer exports registered remote buffers over a loopback TCP listener.
// It stands in for the remote-mem-mgr endpoint a real deployment would run on
// every serving host: requests address buffers by their controller ID and are
// forwarded to the live memctl handles (so the bytes still land in the
// granted regions and the fabric still prices the operation).
type TCPServer struct {
	ln net.Listener

	mu     sync.Mutex
	bufs   map[memctl.BufferID]*memctl.RemoteBuffer
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPServer starts a server on an ephemeral loopback port.
func NewTCPServer() (*TCPServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &TCPServer{
		ln:    ln,
		bufs:  make(map[memctl.BufferID]*memctl.RemoteBuffer),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address for DialTCP.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Register makes buffers addressable by their controller IDs.
func (s *TCPServer) Register(bufs ...*memctl.RemoteBuffer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rb := range bufs {
		if rb != nil {
			s.bufs[rb.ID] = rb
		}
	}
}

// Close stops the listener and all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *TCPServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		var req tcpRequest
		if err := binary.Read(r, binary.BigEndian, &req); err != nil {
			return
		}
		var payload []byte
		if req.Op == tcpOpWrite {
			payload = make([]byte, req.Length)
			if _, err := io.ReadFull(r, payload); err != nil {
				return
			}
		}
		ns, data, err := s.handle(req, payload)
		if err := writeResponse(w, ns, data, err); err != nil {
			return
		}
	}
}

// handle executes one request against the registered buffers.
func (s *TCPServer) handle(req tcpRequest, payload []byte) (int64, []byte, error) {
	s.mu.Lock()
	rb, ok := s.bufs[memctl.BufferID(req.Buffer)]
	s.mu.Unlock()
	if !ok {
		return 0, nil, fmt.Errorf("memplane: tcp server has no buffer %d", req.Buffer)
	}
	switch req.Op {
	case tcpOpWrite:
		ns, err := rb.WriteRemote(req.Offset, payload)
		return ns, nil, err
	case tcpOpRead:
		dst := make([]byte, req.Length)
		ns, err := rb.ReadRemote(req.Offset, dst)
		return ns, dst, err
	default:
		return 0, nil, fmt.Errorf("memplane: tcp server got unknown op %d", req.Op)
	}
}

func writeResponse(w *bufio.Writer, ns int64, data []byte, opErr error) error {
	resp := tcpResponse{Ns: ns, Length: uint32(len(data))}
	if opErr != nil {
		resp.Status = 1
		msg := []byte(opErr.Error())
		resp.Length = uint32(len(msg))
		data = msg
	}
	if err := binary.Write(w, binary.BigEndian, resp); err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return w.Flush()
}

// TCPTransport reaches a TCPServer over one loopback connection, serialising
// requests with a mutex (one outstanding op, like a single queue pair).
type TCPTransport struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// DialTCP connects a transport to a TCPServer.
func DialTCP(addr string) (*TCPTransport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPTransport{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close closes the connection.
func (t *TCPTransport) Close() error { return t.conn.Close() }

// roundTrip sends one request and decodes the response.
func (t *TCPTransport) roundTrip(req tcpRequest, payload, dst []byte) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := binary.Write(t.w, binary.BigEndian, req); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := t.w.Write(payload); err != nil {
			return 0, err
		}
	}
	if err := t.w.Flush(); err != nil {
		return 0, err
	}
	var resp tcpResponse
	if err := binary.Read(t.r, binary.BigEndian, &resp); err != nil {
		return 0, err
	}
	body := make([]byte, resp.Length)
	if _, err := io.ReadFull(t.r, body); err != nil {
		return 0, err
	}
	if resp.Status != 0 {
		return 0, fmt.Errorf("memplane: tcp remote error: %s", body)
	}
	if dst != nil {
		copy(dst, body)
	}
	return resp.Ns, nil
}

// WriteRemote implements Transport.
func (t *TCPTransport) WriteRemote(f Frame, off int64, src []byte) (int64, error) {
	return t.roundTrip(tcpRequest{
		Op: tcpOpWrite, Buffer: uint64(f.Buffer), Offset: f.Offset + off, Length: uint32(len(src)),
	}, src, nil)
}

// ReadRemote implements Transport.
func (t *TCPTransport) ReadRemote(f Frame, off int64, dst []byte) (int64, error) {
	return t.roundTrip(tcpRequest{
		Op: tcpOpRead, Buffer: uint64(f.Buffer), Offset: f.Offset + off, Length: uint32(len(dst)),
	}, nil, dst)
}
