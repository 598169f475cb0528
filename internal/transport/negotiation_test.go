package transport_test

// The negotiation contract of the v2-only wire: a client and server of
// this build settle on v2 exactly once per connection; anything that
// does not propose v2 — a v1 client's length header, stray bytes, a v1
// proposal — is dropped by the server without an answer; a peer that
// answers below v2 fails the client permanently, without a redial loop;
// a peer that hangs up on the preamble is an ordinary transport failure
// with no fallback; and once a connection has negotiated, any attempt
// to renegotiate mid-connection drops it, in both directions.

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// rawPreamble is the 4-byte negotiation opener proposing v2, as raw
// bytes (the tests below speak the wire format by hand).
var rawPreamble = []byte{'G', 'D', 0xF2, 2}

// rawPeer returns a dial function whose every connection is a pipe to a
// goroutine running serve — a hand-written peer speaking raw bytes.
func rawPeer(serve func(conn net.Conn)) transport.DialFunc {
	return func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			serve(server)
		}()
		return client, nil
	}
}

// expectHangup asserts the peer closes conn without sending a byte.
func expectHangup(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes to %s, want hangup", n, what)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server neither answered nor hung up on %s", what)
	}
}

func TestCompatV1ClientNewServer(t *testing.T) {
	// An old client opens with a classic v1 frame — a length header
	// where the preamble belongs. The server must hang up without
	// serving it or negotiating.
	tel := telemetry.New(nil)
	served := make(chan struct{}, 1)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = tel
		s.Handle("echo", func(b []byte) ([]byte, error) {
			served <- struct{}{}
			return b, nil
		})
	})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// length 8 | op "echo" | body "x" — the v1 request envelope.
	if _, err := conn.Write([]byte{0, 0, 0, 8, 4, 'e', 'c', 'h', 'o', 1, 'x', 0}); err != nil {
		t.Fatal(err)
	}
	expectHangup(t, conn, "a v1 request frame")
	select {
	case <-served:
		t.Error("server ran the handler for a v1 frame")
	default:
	}
	if got := tel.Negotiations.Total(); got != 0 {
		t.Errorf("server negotiated %d times with a v1 client, want 0", got)
	}
}

func TestServerNegotiatesOnlyV2(t *testing.T) {
	// The preamble stays negotiable upward — a later client proposing
	// v3 is answered with v2 — but a proposal below v2, or bytes that
	// are no preamble at all, are dropped without an accept.
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	for _, tc := range []struct {
		name   string
		opener []byte
	}{
		{"v1 proposal", []byte{'G', 'D', 0xF2, 1}},
		{"zero proposal", []byte{'G', 'D', 0xF2, 0}},
		{"stray bytes", []byte("GET ")},
	} {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(tc.opener); err != nil {
			t.Fatal(err)
		}
		expectHangup(t, conn, tc.name)
		conn.Close()
	}

	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'G', 'D', 0xF2, 3}); err != nil {
		t.Fatal(err)
	}
	accept := make([]byte, 4)
	if _, err := io.ReadFull(conn, accept); err != nil {
		t.Fatalf("reading accept for a v3 proposal: %v", err)
	}
	if string(accept) != string(rawPreamble) {
		t.Fatalf("accept for a v3 proposal = % x, want v2 % x", accept, rawPreamble)
	}
}

func TestCompatAutoClientOldServer(t *testing.T) {
	// A pre-negotiation server reads the preamble as an oversized v1
	// length header and hangs up. The client has no v1 to fall back to:
	// the call fails as an ordinary, retryable transport error, every
	// redial carries only the v2 preamble, and nothing is negotiated.
	tel := telemetry.New(nil)
	var mu sync.Mutex
	var openers [][]byte
	cd := &countingDial{dial: rawPeer(func(conn net.Conn) {
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		mu.Lock()
		openers = append(openers, hdr)
		mu.Unlock()
	})}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{
		Telemetry: tel,
		Retry:     &transport.RetryPolicy{MaxAttempts: 3},
	})
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", []byte("downgrade"))
	if err == nil {
		t.Fatal("call succeeded against a server that hangs up on the preamble")
	}
	if errors.Is(err, transport.ErrVersionMismatch) || !transport.Retryable(err) {
		t.Errorf("err = %v, want a retryable transport error, not a version mismatch", err)
	}
	if got := cd.count.Load(); got != 3 {
		t.Errorf("dialed %d conns, want 3 (one per attempt)", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, o := range openers {
		if string(o) != string(rawPreamble) {
			t.Errorf("conn %d opened with % x, want the v2 preamble", i, o)
		}
	}
	if got := tel.Negotiations.Total(); got != 0 {
		t.Errorf("negotiations = %d against a hang-up server, want 0", got)
	}
}

func TestCompatAutoClientNewServer(t *testing.T) {
	// Both sides speak v2: one negotiation, then every concurrent call
	// multiplexes onto the single connection.
	clientTel := telemetry.New(nil)
	serverTel := telemetry.New(nil)
	release := make(chan struct{})
	arrived := make(chan struct{}, 16)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("park", func(b []byte) ([]byte, error) {
			arrived <- struct{}{}
			<-release
			return []byte("ok"), nil
		})
	})
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{Telemetry: clientTel})
	defer c.Close()

	const calls = 8
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Call(context.Background(), "park", nil)
		}(i)
	}
	for i := 0; i < calls; i++ {
		<-arrived // all calls are in flight simultaneously
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("%d concurrent calls dialed %d conns, want 1 (multiplexed)", calls, got)
	}
	if got := clientTel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("client negotiations{v2} = %d, want 1", got)
	}
	if got := serverTel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("server negotiations{v2} = %d, want 1", got)
	}
	if got := clientTel.StreamsOpened.Value(); got != calls {
		t.Errorf("transport_streams_opened_total = %d, want %d", got, calls)
	}
}

func TestCompatServerCappedAtV1(t *testing.T) {
	// A peer capped at v1 answers the v2 proposal with a v1 accept. That
	// answer cannot change on a redial, so the call fails permanently
	// with ErrVersionMismatch after one dial, even under a retry policy.
	tel := telemetry.New(nil)
	cd := &countingDial{dial: rawPeer(func(conn net.Conn) {
		if _, err := io.ReadFull(conn, make([]byte, 4)); err != nil {
			return
		}
		conn.Write([]byte{'G', 'D', 0xF2, 1})
		io.Copy(io.Discard, conn) // the client hangs up
	})}
	c := transport.NewClient(cd.fn()).Configure(transport.Config{
		Telemetry: tel,
		Retry:     &transport.RetryPolicy{MaxAttempts: 4},
	})
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", []byte("x"))
	if !errors.Is(err, transport.ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if transport.Retryable(err) {
		t.Error("version mismatch must be permanent, not retryable")
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("dialed %d conns, want 1 (no redial loop on a permanent mismatch)", got)
	}
	if got := tel.Negotiations.Total(); got != 0 {
		t.Errorf("negotiations = %d after a refused accept, want 0", got)
	}
}

func TestCompatMidConnectionDowngradeRefusedByServer(t *testing.T) {
	// After negotiating v2, a client re-sending the preamble is asking
	// for a mid-connection downgrade; the server must drop the
	// connection rather than renegotiate.
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawPreamble); err != nil {
		t.Fatal(err)
	}
	accept := make([]byte, 4)
	if _, err := io.ReadFull(conn, accept); err != nil {
		t.Fatalf("reading accept: %v", err)
	}
	if accept[3] != 2 {
		t.Fatalf("server agreed v%d, want v2", accept[3])
	}
	if _, err := conn.Write(rawPreamble); err != nil {
		t.Fatal(err)
	}
	expectHangup(t, conn, "a mid-connection renegotiation")
}

func TestCompatMidConnectionDowngradeRefusedByClient(t *testing.T) {
	// The mirror image: a server that negotiates v2 and then emits a
	// preamble mid-stream (as if renegotiating) violates framing; the
	// client must kill the connection and fail the in-flight call.
	clientEnd, serverEnd := net.Pipe()
	go func() {
		pre := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, pre); err != nil {
			return
		}
		if _, err := serverEnd.Write(rawPreamble); err != nil { // accept v2
			return
		}
		// Consume the request frame: length prefix, then body.
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(serverEnd, hdr); err != nil {
			return
		}
		n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
		if _, err := io.ReadFull(serverEnd, make([]byte, n)); err != nil {
			return
		}
		// "Renegotiate": raw preamble bytes where a response frame belongs.
		serverEnd.Write(rawPreamble)
	}()
	c := transport.NewClient(func() (net.Conn, error) { return clientEnd, nil })
	defer c.Close()
	_, err := c.Call(context.Background(), "echo", []byte("x"))
	if err == nil {
		t.Fatal("call succeeded across a mid-connection renegotiation attempt")
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want the connection killed (ErrClosed)", err)
	}
}

// findServe returns the rpc.serve spans retained by tel's ring.
func findServe(tel *telemetry.Telemetry) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, rec := range tel.Ring.Spans() {
		if rec.Name == "rpc.serve" {
			out = append(out, rec)
		}
	}
	return out
}

func TestCompatTracedClientV2Server(t *testing.T) {
	// A tracing client against a tracing v2 server: the trace context
	// rides the frame-header extension and the server's rpc.serve span
	// exports with the client's trace ID, parented on the rpc.call span.
	clientTel := telemetry.New(nil)
	serverTel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	c := transport.NewClient(dial).Configure(transport.Config{Telemetry: clientTel})
	defer c.Close()

	root := clientTel.Tracer.StartSpan("test.root")
	ctx := telemetry.ContextWith(context.Background(), root.Context())
	if _, err := c.Call(ctx, "echo", []byte("traced")); err != nil {
		t.Fatal(err)
	}
	root.End()

	serves := findServe(serverTel)
	if len(serves) != 1 {
		t.Fatalf("server recorded %d rpc.serve spans, want 1", len(serves))
	}
	if serves[0].TraceID != root.TraceID() {
		t.Errorf("server span trace = %d, want client trace %d", serves[0].TraceID, root.TraceID())
	}
	if serves[0].ParentID == 0 || serves[0].ParentID == root.Context().SpanID {
		t.Errorf("server span parent = %d, want the rpc.call span (not 0, not the root %d)",
			serves[0].ParentID, root.Context().SpanID)
	}
	var remote bool
	for _, a := range serves[0].Attrs {
		if a.Key == "remote" && a.Value == "true" {
			remote = true
		}
	}
	if !remote {
		t.Error("adopted rpc.serve span is not marked remote=true")
	}
}

func TestCompatUntracedClientNewServer(t *testing.T) {
	// No trace context on the wire (an untraced caller): the server
	// starts its own trace and must not mark it remote.
	serverTel := telemetry.New(nil)
	dial := startServer(t, func(s *transport.Server) {
		s.Telemetry = serverTel
		s.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	})
	for i := 0; i < 2; i++ {
		c := transport.NewClient(dial)
		if _, err := c.Call(context.Background(), "echo", []byte("untraced")); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		c.Close()
	}
	serves := findServe(serverTel)
	if len(serves) != 2 {
		t.Fatalf("server recorded %d rpc.serve spans, want 2", len(serves))
	}
	for _, sp := range serves {
		if sp.ParentID != 0 {
			t.Errorf("untraced request produced a parented serve span (parent %d)", sp.ParentID)
		}
		for _, a := range sp.Attrs {
			if a.Key == "remote" {
				t.Errorf("untraced request marked remote=%s", a.Value)
			}
		}
	}
}
