package rdma

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
)

// This file implements the paper's "RPC over RDMA" communication framework
// (Section 4.1). Requests are written into a request region on the server
// with a one-sided WRITE; the server daemon processes them and writes the
// response into a per-client response region; the client polls its response
// region for the result, because RDMA inbound operations are cheaper than
// outbound operations.

// HandlerFunc processes a decoded request payload and returns a response
// payload or an error.
type HandlerFunc func(args []byte) ([]byte, error)

// RPCServer is the daemon side of RPC over RDMA. It must run on an active
// (S0) host: it owns registered request slots, and its CPU executes handlers.
type RPCServer struct {
	mu       sync.Mutex
	name     string
	device   *Device
	handlers map[string]HandlerFunc

	calls     uint64
	callBytes uint64
}

// NewRPCServer creates an RPC server bound to the device.
func NewRPCServer(name string, device *Device) *RPCServer {
	return &RPCServer{name: name, device: device, handlers: make(map[string]HandlerFunc)}
}

// Handle registers a handler for the given method name.
func (s *RPCServer) Handle(method string, fn HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = fn
}

// Calls returns the number of requests served.
func (s *RPCServer) Calls() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Device returns the NIC the server is bound to.
func (s *RPCServer) Device() *Device { return s.device }

// dispatch executes a method; used by RPCClient.Call after the request bytes
// have been "delivered" through the fabric.
func (s *RPCServer) dispatch(method string, args []byte) ([]byte, error) {
	s.mu.Lock()
	fn, ok := s.handlers[method]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rdma: rpc server %q has no handler for %q", s.name, method)
	}
	s.mu.Lock()
	s.calls++
	s.callBytes += uint64(len(args))
	s.mu.Unlock()
	return fn(args)
}

// RPCClient is the agent side: it owns a request/response channel to one
// server over a connected queue pair.
type RPCClient struct {
	name   string
	device *Device
	server *RPCServer

	qp       *QueuePair
	cq       *CompletionQueue
	reqMR    *MemoryRegion // request slot registered on the server device
	respMR   *MemoryRegion // response slot registered on the client device
	serverQP *QueuePair
	serverCQ *CompletionQueue

	nextWR   uint64
	totalLat int64
	calls    uint64
}

// requestSlotSize bounds a single RPC message (requests and responses are
// small control messages; bulk data moves through one-sided verbs directly).
const requestSlotSize = 64 << 10

// NewRPCClient wires a client on clientDev to the server: it registers the
// request slot on the server's device, the response slot on the client's
// device and connects a queue pair between the two.
func NewRPCClient(name string, clientDev *Device, server *RPCServer) (*RPCClient, error) {
	if clientDev == nil || server == nil || server.device == nil {
		return nil, fmt.Errorf("rdma: rpc client needs a device and a server")
	}
	if clientDev.fabric != server.device.fabric {
		return nil, fmt.Errorf("rdma: client and server are on different fabrics")
	}
	reqMR, err := server.device.RegisterMemory(requestSlotSize, AccessFlags{RemoteRead: true, RemoteWrite: true})
	if err != nil {
		return nil, err
	}
	respMR, err := clientDev.RegisterMemory(requestSlotSize, AccessFlags{RemoteRead: true, RemoteWrite: true})
	if err != nil {
		return nil, err
	}
	cq := NewCompletionQueue()
	qp := clientDev.CreateQueuePair(cq)
	serverCQ := NewCompletionQueue()
	serverQP := server.device.CreateQueuePair(serverCQ)
	if err := Connect(qp, serverQP); err != nil {
		return nil, err
	}
	return &RPCClient{
		name:     name,
		device:   clientDev,
		server:   server,
		qp:       qp,
		cq:       cq,
		reqMR:    reqMR,
		respMR:   respMR,
		serverQP: serverQP,
		serverCQ: serverCQ,
	}, nil
}

// envelope is the wire format of a request or response.
type envelope struct {
	Method string          `json:"method"`
	Error  string          `json:"error,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
}

// Call invokes method on the server with args (JSON-encodable), decoding the
// response into reply (a pointer) when non-nil. It returns the simulated
// round-trip latency. The call path is: one-sided WRITE of the request into
// the server's request slot, server CPU dispatch, one-sided WRITE of the
// response into the client's response slot, client CQ poll. Whichever way it
// returns, no completion is left queued on either end.
func (c *RPCClient) Call(method string, args interface{}, reply interface{}) (int64, error) {
	defer c.reap()
	body, err := json.Marshal(args)
	if err != nil {
		return 0, fmt.Errorf("rdma: marshal rpc args: %w", err)
	}
	req, err := json.Marshal(envelope{Method: method, Body: body})
	if err != nil {
		return 0, err
	}
	if len(req)+4 > requestSlotSize {
		return 0, fmt.Errorf("rdma: rpc request of %d bytes exceeds the %d-byte slot", len(req), requestSlotSize)
	}

	// 1. Write the request into the server's request slot (length-prefixed).
	framed := make([]byte, 4+len(req))
	binary.LittleEndian.PutUint32(framed, uint32(len(req)))
	copy(framed[4:], req)
	c.nextWR++
	lat1, err := c.qp.Write(c.nextWR, framed, c.reqMR.RKey(), 0)
	if err != nil {
		return 0, fmt.Errorf("rdma: rpc request write: %w", err)
	}

	// 2. The server daemon picks up the request and dispatches it.
	respBody, dispatchErr := c.server.dispatch(method, body)
	respEnv := envelope{Method: method}
	if dispatchErr != nil {
		respEnv.Error = dispatchErr.Error()
	} else {
		respEnv.Body = respBody
	}
	resp, err := json.Marshal(respEnv)
	if err != nil {
		return 0, err
	}

	// 3. The server writes the response into the client's response slot.
	//    (The server initiates this on its own QP end.)
	framedResp := make([]byte, 4+len(resp))
	binary.LittleEndian.PutUint32(framedResp, uint32(len(resp)))
	copy(framedResp[4:], resp)
	c.nextWR++
	lat2, err := c.serverQP.Write(c.nextWR, framedResp, c.respMR.RKey(), 0)
	if err != nil {
		return 0, fmt.Errorf("rdma: rpc response write: %w", err)
	}

	// 4. The client polls its completion queue / response slot: one poll is
	//    charged per call (the reap itself runs on the way out).
	pollCost := c.device.fabric.Model().PollCostNs
	c.device.fabric.mu.Lock()
	c.device.fabric.stats.CompletedPolls++
	c.device.fabric.mu.Unlock()

	total := lat1 + lat2 + pollCost
	c.totalLat += total
	c.calls++

	if dispatchErr != nil {
		return total, dispatchErr
	}
	if reply != nil && len(respEnv.Body) > 0 {
		if err := json.Unmarshal(respEnv.Body, reply); err != nil {
			return total, fmt.Errorf("rdma: unmarshal rpc reply: %w", err)
		}
	}
	return total, nil
}

// reap empties both ends' completion queues. Call has already returned each
// verb's status and latency, so the completions are discarded; the server end
// is reaped here too because Call plays the daemon's part of the exchange.
func (c *RPCClient) reap() {
	var wcs [4]WorkCompletion
	for _, cq := range [...]*CompletionQueue{c.cq, c.serverCQ} {
		for cq.Poll(wcs[:]) == len(wcs) {
		}
	}
}

// Calls returns the number of completed calls.
func (c *RPCClient) Calls() uint64 { return c.calls }

// MeanLatencyNs returns the mean simulated round-trip latency.
func (c *RPCClient) MeanLatencyNs() int64 {
	if c.calls == 0 {
		return 0
	}
	return c.totalLat / int64(c.calls)
}

// Close releases the client's registered regions.
func (c *RPCClient) Close() {
	c.server.device.DeregisterMemory(c.reqMR)
	c.device.DeregisterMemory(c.respMR)
}
