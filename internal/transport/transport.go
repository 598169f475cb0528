// Package transport implements the length-prefixed binary RPC protocol
// spoken between GlobeDoc proxies, object servers, the naming service and
// the location service.
//
// A call is one framed request (operation name + opaque body) answered by
// one framed response (status + error string + opaque body). Bodies are
// encoded by the callers with package enc, keeping this layer free of any
// knowledge of the messages it carries.
//
// A connection opens with a 4-byte version-negotiation preamble (frame.go)
// and then carries many concurrent calls as stream-multiplexed frames:
// each call is one request frame answered by one response frame on the
// same stream ID, in whatever order the server finishes them. A client
// keeps a small pool of such connections per server, and every frame
// has a hard size limit as a defence against malicious peers — remember
// that GlobeDoc clients routinely talk to untrusted servers.
package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/enc"
	"globedoc/internal/telemetry"
)

// MaxFrame is the largest frame either side will accept. It bounds the
// memory an untrusted peer can make us allocate.
const MaxFrame = 16 << 20 // 16 MiB

// Errors reported by the transport.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	ErrClosed        = errors.New("transport: connection closed")
	ErrDialTimeout   = errors.New("transport: dial timed out")
)

// RemoteError is an error string returned by the far side of a call. It
// is distinguished from local transport failures so callers can tell "the
// server refused" from "the network broke".
type RemoteError struct {
	Op      string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote error from %q: %s", e.Op, e.Message)
}

// encodeRequest encodes a request envelope: operation name and body.
// The trace context travels in the frame header, not here.
func encodeRequest(op string, body []byte) []byte {
	w := enc.NewWriter(16 + len(op) + len(body))
	w.String(op)
	w.BytesPrefixed(body)
	return w.Bytes()
}

func decodeRequest(payload []byte) (op string, body []byte, err error) {
	r := enc.NewReader(payload)
	op = r.String()
	body = r.BytesPrefixed()
	if err := r.Finish(); err != nil {
		return "", nil, err
	}
	return op, body, nil
}

func encodeResponse(body []byte, callErr error) []byte {
	w := enc.NewWriter(16 + len(body))
	if callErr != nil {
		w.Byte(1)
		w.String(callErr.Error())
		w.BytesPrefixed(nil)
	} else {
		w.Byte(0)
		w.String("")
		w.BytesPrefixed(body)
	}
	return w.Bytes()
}

func decodeResponse(op string, payload []byte) ([]byte, error) {
	r := enc.NewReader(payload)
	status := r.Byte()
	msg := r.String()
	body := r.BytesPrefixed()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if status != 0 {
		return nil, &RemoteError{Op: op, Message: msg}
	}
	return body, nil
}

// Handler processes one request body and returns a response body. Errors
// are transported to the caller as RemoteError.
type Handler func(body []byte) ([]byte, error)

// HandlerCtx is a Handler that also receives the request's context,
// which carries the adopted trace context (telemetry.SpanContextFrom)
// so server-side spans started under it join the caller's distributed
// trace.
type HandlerCtx func(ctx context.Context, body []byte) ([]byte, error)

// DefaultServerStreams bounds concurrently executing handlers per
// connection when Server.StreamLimit is zero.
const DefaultServerStreams = 64

// Server dispatches framed requests to registered handlers.
type Server struct {
	// IdleTimeout, when positive, bounds how long a connection may sit
	// between frames (and how long a response write may take) before the
	// server drops it — a defence against stalled or half-dead peers
	// pinning goroutines forever. A connection with streams in flight is
	// not idle: the timer only runs while no handler is active. Set
	// before Serve.
	IdleTimeout time.Duration
	// StreamLimit bounds concurrently executing handlers per connection (0 = DefaultServerStreams); excess frames wait in the
	// read loop, applying backpressure. Set before Serve.
	StreamLimit int
	// Telemetry records per-operation serve counts and spans; nil falls
	// back to the process-wide telemetry.Default(). Set before Serve.
	Telemetry *telemetry.Telemetry
	// Clock is the time source for idle deadlines (nil = real clock).
	Clock clock.Clock

	mu       sync.RWMutex
	handlers map[string]HandlerCtx

	listeners sync.Map // net.Listener -> struct{}
	conns     sync.Map // net.Conn -> struct{}
	closed    atomic.Bool
	wg        sync.WaitGroup

	// Requests counts handled calls, for tests and load metrics.
	Requests atomic.Uint64
}

// NewServer returns a server with no handlers registered.
func NewServer() *Server {
	return &Server{handlers: make(map[string]HandlerCtx)}
}

// Handle registers h for the given operation name, replacing any previous
// handler.
func (s *Server) Handle(op string, h Handler) {
	s.HandleCtx(op, func(_ context.Context, body []byte) ([]byte, error) { return h(body) })
}

// HandleCtx registers a context-aware handler for the given operation
// name, replacing any previous handler.
func (s *Server) HandleCtx(op string, h HandlerCtx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[op] = h
}

// Ops returns the registered operation names (unordered).
func (s *Server) Ops() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ops := make([]string, 0, len(s.handlers))
	for op := range s.handlers {
		ops = append(ops, op)
	}
	return ops
}

// Serve accepts connections on l until l is closed or the server is shut
// down. Each connection is served on its own goroutine, and each call on
// a connection runs on a goroutine of its own (bounded by StreamLimit).
func (s *Server) Serve(l net.Listener) error {
	s.listeners.Store(l, struct{}{})
	defer s.listeners.Delete(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Start runs Serve on its own goroutine and returns immediately.
func (s *Server) Start(l net.Listener) {
	go func() { _ = s.Serve(l) }()
}

// clock returns the server's time source.
func (s *Server) clock() clock.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return clock.Real
}

// serveConn reads the peer's negotiation preamble and serves the
// connection at the agreed version. A peer that does not open with a
// preamble proposing at least v2 — a v1 length header, stray bytes, a v1
// proposal — is dropped without an answer.
func (s *Server) serveConn(conn net.Conn) {
	s.conns.Store(conn, struct{}{})
	defer s.conns.Delete(conn)
	defer conn.Close()
	if s.IdleTimeout > 0 {
		// A failed SetDeadline means the conn is already dead; an
		// unarmed idle timeout must not pin this goroutine forever.
		if err := conn.SetDeadline(s.clock().Now().Add(s.IdleTimeout)); err != nil {
			return
		}
	}
	var pre [preambleLen]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	agreed, ok := agree(pre[:])
	if !ok {
		return
	}
	if _, err := conn.Write(clientPreamble(agreed)); err != nil {
		return
	}
	telemetry.Or(s.Telemetry).Negotiations.With(versionLabel).Inc()
	s.serveV2(conn)
}

// serveV2 runs the multiplexed loop: each request frame is handled on
// its own goroutine and answered on the stream it arrived on, so one
// slow handler never blocks responses for its siblings. Any frame that
// is not a well-formed request — including a re-sent negotiation
// preamble attempting a mid-connection downgrade — drops the
// connection.
func (s *Server) serveV2(conn net.Conn) {
	if s.IdleTimeout > 0 {
		// Clear the negotiation deadline; from here on reads and writes
		// are armed separately so a parked handler on one stream cannot
		// leave a stale deadline that kills sibling traffic.
		if err := conn.SetDeadline(time.Time{}); err != nil {
			return
		}
	}
	limit := s.StreamLimit
	if limit <= 0 {
		limit = DefaultServerStreams
	}
	sem := make(chan struct{}, limit)
	var (
		wmu    sync.Mutex
		active atomic.Int64
		wg     sync.WaitGroup
	)
	defer wg.Wait()
	for {
		if s.IdleTimeout > 0 {
			var deadline time.Time // zero: no idle reaping while streams are active
			if active.Load() == 0 {
				deadline = s.clock().Now().Add(s.IdleTimeout)
			}
			if err := conn.SetReadDeadline(deadline); err != nil {
				return
			}
		}
		f, err := readV2Frame(conn)
		if err != nil {
			return
		}
		if f.Type != frameRequest {
			return
		}
		sem <- struct{}{} // backpressure: bound concurrent handlers
		active.Add(1)
		wg.Add(1)
		go func(f v2Frame) {
			defer wg.Done()
			resp := s.dispatch(f.Payload, f.Trace)
			wmu.Lock()
			var werr error
			if s.IdleTimeout > 0 {
				werr = conn.SetWriteDeadline(s.clock().Now().Add(s.IdleTimeout))
			}
			if werr == nil {
				werr = writeV2Frame(conn, v2Frame{Type: frameResponse, StreamID: f.StreamID, Payload: resp})
			}
			wmu.Unlock()
			if active.Add(-1) == 0 && s.IdleTimeout > 0 && werr == nil {
				// The conn just quiesced: restart the idle clock under
				// the blocked read loop (SetReadDeadline takes effect on
				// an in-progress Read).
				werr = conn.SetReadDeadline(s.clock().Now().Add(s.IdleTimeout))
			}
			<-sem
			if werr != nil {
				conn.Close() // unblocks the read loop; conn is unusable
			}
		}(f)
	}
}

// dispatch decodes one request payload, runs its handler and returns
// the encoded response. sc is the span context the request frame's
// header carried (the zero value when untraced); a valid one is adopted
// so the rpc.serve span — and every handler span under it — exports with
// the caller's trace ID.
func (s *Server) dispatch(payload []byte, sc telemetry.SpanContext) []byte {
	op, body, err := decodeRequest(payload)
	var respBody []byte
	if err == nil {
		s.mu.RLock()
		h, ok := s.handlers[op]
		s.mu.RUnlock()
		if !ok {
			err = fmt.Errorf("unknown operation %q", op)
		} else {
			s.Requests.Add(1)
			tel := telemetry.Or(s.Telemetry)
			sp := tel.Tracer.StartSpanFrom("rpc.serve", sc)
			sp.Annotate("op", op)
			if sc.Valid() {
				// The parent span lives in the calling process: mark the
				// boundary for the trace renderer.
				sp.Annotate("remote", "true")
			}
			//lint:ignore ctxfirst the server is this process's request-tree root: there is no upstream ctx to inherit, and cancellation arrives as connection teardown, not ctx propagation
			ctx := telemetry.ContextWith(context.Background(), sp.Context())
			respBody, err = h(ctx, body)
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			sp.Annotate("outcome", outcome)
			sp.End()
			tel.RPCServed.With(op, outcome).Inc()
		}
	}
	return encodeResponse(respBody, err)
}

// Close stops accepting connections on all listeners passed to Serve,
// closes every active connection, and waits for connection goroutines to
// exit.
func (s *Server) Close() {
	s.closed.Store(true)
	s.listeners.Range(func(key, _ any) bool {
		key.(net.Listener).Close()
		return true
	})
	s.conns.Range(func(key, _ any) bool {
		key.(net.Conn).Close()
		return true
	})
	s.wg.Wait()
}

// DialFunc opens a connection to a fixed peer. The network simulator and
// plain net.Dial both fit this shape.
type DialFunc func() (net.Conn, error)

// Client issues calls to one server over a bounded pool of multiplexed
// connections (mux.go). Each call reserves a stream on the least-loaded
// connection with headroom, dialling a new one while the pool has room,
// so calls from different goroutines proceed in parallel instead of
// serialising on a single conn.
type Client struct {
	dial DialFunc

	// DialTimeout bounds each connection attempt (0 = unbounded).
	DialTimeout time.Duration
	// CallTimeout bounds each call attempt end to end — request write
	// through response read (0 = unbounded). A stalled or half-dead
	// replica then costs one timeout, not a hang.
	CallTimeout time.Duration
	// Retry, when set, governs redialling and re-issuing after transient
	// failures with exponential backoff. When nil, the legacy behaviour
	// applies: one immediate retry, and only when the failure hit a
	// reused (possibly stale) pooled connection.
	Retry *RetryPolicy
	// Telemetry records per-op call counts, retry counts, pool activity
	// and spans; nil falls back to the process-wide telemetry.Default().
	Telemetry *telemetry.Telemetry
	// Pool bounds the connection pool; the zero value means up to
	// DefaultMaxConns concurrent connections with no idle reaping.
	Pool PoolConfig
	// Clock is the time source for call deadlines and idle-conn age
	// checks (nil = real clock). Tests inject a fake so deadline and
	// reaping behaviour replays deterministically.
	Clock clock.Clock
	// Addr, when set, is the contact address this client dials, used
	// purely as the telemetry key for per-address replica health: every
	// call attempt records a success (with its RTT) or failure sample
	// into Telemetry.Health under this label. Empty disables health
	// recording. Set before the first call.
	Addr string

	// Multiplexing state (see mux.go).
	muxMu      sync.Mutex
	muxConns   []*muxConn    // live connections
	muxDialing int           // dials in flight, counted against MaxConns
	muxNotify  chan struct{} // closed+replaced when stream capacity frees up

	// BytesSent and BytesReceived count frame payload bytes, used by the
	// benchmark harness to report protocol overhead.
	BytesSent     atomic.Uint64
	BytesReceived atomic.Uint64
	// Calls counts completed calls.
	Calls atomic.Uint64
	// Retries counts extra attempts beyond the first, per call site.
	Retries atomic.Uint64
}

// NewClient returns a client that connects lazily using dial.
func NewClient(dial DialFunc) *Client {
	return &Client{dial: dial}
}

// Configure applies cfg's timeouts, retry policy, telemetry and pool
// bounds to the client and returns it. Configure before the first call;
// the pool's size is latched when the first call runs.
func (c *Client) Configure(cfg Config) *Client {
	c.DialTimeout = cfg.DialTimeout
	c.CallTimeout = cfg.CallTimeout
	c.Retry = cfg.Retry
	c.Telemetry = cfg.Telemetry
	c.Pool = cfg.Pool
	if cfg.Addr != "" {
		// An empty cfg.Addr preserves an address set at construction
		// (object.NewClient knows it; a shared Config does not).
		c.Addr = cfg.Addr
	}
	return c
}

// Config bundles the robustness and observability knobs threaded through
// every RPC call site: attempt timeouts, the retry policy, the telemetry
// sink and the connection-pool bounds. The zero Config leaves a client
// with unbounded waits, legacy single-retry semantics, the shared
// default telemetry and a DefaultMaxConns-sized pool.
type Config struct {
	DialTimeout time.Duration
	CallTimeout time.Duration
	Retry       *RetryPolicy
	Telemetry   *telemetry.Telemetry
	Pool        PoolConfig
	// Addr labels health samples with the peer's contact address (see
	// Client.Addr). Empty leaves any address set at construction.
	Addr string
}

// Call sends op with body and waits for the response. ctx cancellation
// aborts the stream-slot wait, dialling and the in-flight exchange (the
// stream is abandoned; its connection stays up for sibling calls). With a
// RetryPolicy configured it retries transient failures with backoff;
// otherwise it retries once when the failure hit an already-open
// connection. Every call is recorded as one rpc.call span (annotated
// with the attempt count) and one rpc_calls_total{op,outcome} increment;
// extra attempts also count into rpc_retries_total. When ctx carries a
// span context the rpc.call span joins that trace, and the span's own
// context rides the wire so the server's rpc.serve span joins it too.
// Every attempt additionally records a per-address health sample when
// Addr is set — except attempts that failed only because ctx was
// already cancelled or past its deadline, which say nothing about the
// replica and are not held against it.
func (c *Client) Call(ctx context.Context, op string, body []byte) ([]byte, error) {
	if ctx == nil {
		//lint:ignore ctxfirst nil-ctx compatibility: legacy callers predate the ctx-first API and a nil ctx must mean "no cancellation", not a panic
		ctx = context.Background()
	}
	tel := telemetry.Or(c.Telemetry)
	caller := telemetry.SpanContextFrom(ctx)
	sp := tel.Tracer.StartSpanFrom("rpc.call", caller)
	sp.Annotate("op", op)
	attempts := 1

	// When the caller is tracing, the rpc.call span is the wire-
	// propagated parent: the server's rpc.serve span nests under it,
	// completing the client→server tree. A call outside any trace stays
	// untraced on the wire (the peer starts its own root, unmarked).
	var wire telemetry.SpanContext
	if caller.Valid() {
		wire = sp.Context()
	}
	run := func() ([]byte, bool, error) {
		start := c.clock().Now()
		resp, reused, err := c.attemptMux(ctx, wire, op, body)
		switch {
		case err == nil:
			tel.Health.RecordSuccess(c.Addr, c.clock().Now().Sub(start))
		case ctx.Err() == nil:
			// A caller-side cancellation or expired deadline says nothing
			// about the replica's health; only attempts the caller still
			// wanted count as failure evidence.
			tel.Health.RecordFailure(c.Addr)
		}
		return resp, reused, err
	}

	var resp []byte
	var err error
	if c.Retry == nil {
		// Legacy semantics: one immediate retry, only for failures on a
		// connection that might simply have gone stale in the pool.
		var reused bool
		resp, reused, err = run()
		if err != nil && reused && Retryable(err) && ctx.Err() == nil {
			c.Retries.Add(1)
			tel.RPCRetries.Inc()
			attempts++
			resp, _, err = run()
		}
	} else {
		for attempt := 0; attempt < c.Retry.Attempts(); attempt++ {
			if attempt > 0 {
				c.Retries.Add(1)
				tel.RPCRetries.Inc()
				attempts++
				c.Retry.clock().Sleep(c.Retry.Backoff(attempt))
			}
			resp, _, err = run()
			if err == nil || !Retryable(err) || ctx.Err() != nil {
				break
			}
		}
	}
	if err == nil {
		c.Calls.Add(1)
	}

	outcome := "ok"
	if err != nil {
		outcome = "error"
		sp.Annotate("error", err.Error())
	}
	sp.Annotate("attempts", strconv.Itoa(attempts))
	sp.Annotate("outcome", outcome)
	sp.End()
	tel.RPCCalls.With(op, outcome).Inc()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// clock returns the client's time source.
func (c *Client) clock() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.Real
}

// watchCancel force-expires conn's deadline when ctx is cancelled, so a
// blocked read or write returns promptly. The returned stop function
// must be called before conn is used further; it waits for the watcher
// to exit so no late SetDeadline can poison the conn.
func watchCancel(ctx context.Context, conn net.Conn) (stop func()) {
	done := ctx.Done()
	if done == nil {
		return func() {}
	}
	stopped := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			// Best-effort poison: if SetDeadline fails the conn is
			// already torn down, which achieves the same thing.
			_ = conn.SetDeadline(time.Unix(1, 0)) // far past: fail I/O now
		case <-stopped:
		}
	}()
	return func() {
		close(stopped)
		<-exited
	}
}

// ctxError folds ctx's cancellation cause into err so callers can
// errors.Is against context.Canceled / context.DeadlineExceeded when the
// I/O failure was cancellation-induced.
func ctxError(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w (%v)", cerr, err)
	}
	return err
}
