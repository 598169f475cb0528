package transport_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/transport"
)

// countingDial wraps a DialFunc and counts how many connections it made.
type countingDial struct {
	dial  transport.DialFunc
	count atomic.Int64
}

func (d *countingDial) fn() transport.DialFunc {
	return func() (net.Conn, error) {
		d.count.Add(1)
		return d.dial()
	}
}

// parkingServer starts a server whose "park" handler signals arrival on
// the returned channel and then blocks until release is closed — the
// deterministic replacement for sleep-and-poll synchronisation.
func parkingServer(t *testing.T, release <-chan struct{}) (transport.DialFunc, <-chan struct{}) {
	t.Helper()
	arrived := make(chan struct{}, 64)
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("park", func(body []byte) ([]byte, error) {
			arrived <- struct{}{}
			<-release
			return nil, nil
		})
		s.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	})
	return dial, arrived
}

func TestPoolReusesIdleConnection(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("ping", func(body []byte) ([]byte, error) { return nil, nil })
	})
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	defer c.Close()

	for i := 0; i < 10; i++ {
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("sequential calls dialed %d connections, want 1 (pooled reuse)", got)
	}
	if idle := c.IdleConns(); idle != 1 {
		t.Errorf("IdleConns = %d, want 1", idle)
	}
	if inUse := c.ConnsInUse(); inUse != 0 {
		t.Errorf("ConnsInUse = %d after all calls returned, want 0", inUse)
	}
}

func TestPoolBoundsConcurrentConnections(t *testing.T) {
	// Handlers park until released so all in-flight calls overlap. With a
	// one-stream budget every call needs a connection of its own, so the
	// pool must never open more than MaxConns connections; the rest wait
	// for a stream to free up.
	release := make(chan struct{})
	dial, arrived := parkingServer(t, release)
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	c.Pool = transport.PoolConfig{MaxConns: 3, StreamBudget: 1}
	defer c.Close()

	const calls = 12
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Call(context.Background(), "park", nil)
		}(i)
	}
	// Let the first wave occupy every stream, then drain.
	for i := 0; i < 3; i++ {
		<-arrived
	}
	if inUse := c.ConnsInUse(); inUse != 3 {
		t.Errorf("ConnsInUse = %d with every stream parked, want 3", inUse)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := cd.count.Load(); got > 3 {
		t.Errorf("%d concurrent calls dialed %d connections, want <= MaxConns=3", calls, got)
	}
}

func TestPoolIdleTimeoutReapsStaleConns(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("ping", func(body []byte) ([]byte, error) { return nil, nil })
	})
	cd := &countingDial{dial: dial}
	clk := clock.NewFake(time.Unix(1_000_000, 0))
	c := transport.NewClient(cd.fn())
	c.Pool = transport.PoolConfig{IdleTimeout: 10 * time.Millisecond}
	c.Clock = clk
	defer c.Close()

	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Millisecond)
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	if got := cd.count.Load(); got != 2 {
		t.Errorf("dialed %d connections, want 2 (stale idle conn reaped, fresh dial)", got)
	}
}

func TestPoolNegativeMaxIdleDisablesPooling(t *testing.T) {
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("ping", func(body []byte) ([]byte, error) { return nil, nil })
	})
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	c.Pool = transport.PoolConfig{MaxIdle: -1}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Call(context.Background(), "ping", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := cd.count.Load(); got != 3 {
		t.Errorf("dialed %d connections with MaxIdle=-1, want 3 (no pooling)", got)
	}
	if idle := c.IdleConns(); idle != 0 {
		t.Errorf("IdleConns = %d, want 0", idle)
	}
}

func TestPoolSlotWaitCancelledByContext(t *testing.T) {
	// One connection with a one-stream budget: a second call waits for
	// the slot and must honour ctx while waiting.
	release := make(chan struct{})
	defer close(release)
	dial, arrived := parkingServer(t, release)
	c := transport.NewClient(dial)
	c.Pool = transport.PoolConfig{MaxConns: 1, StreamBudget: 1}
	defer c.Close()

	go func() {
		_, _ = c.Call(context.Background(), "park", nil)
	}()
	<-arrived // the parked call owns the only stream

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, "park", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded while waiting for a slot", err)
	}
}

func TestCallContextCancelInFlight(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	dial, arrived := parkingServer(t, release)
	c := transport.NewClient(dial)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "park", nil)
		done <- err
	}()
	<-arrived // the request reached the handler; cancel it in flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call never returned")
	}
}

func TestCloseWhileInFlightDoesNotLeakConns(t *testing.T) {
	release := make(chan struct{})
	dial, arrived := parkingServer(t, release)
	c := transport.NewClient(dial)
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "park", nil)
		done <- err
	}()
	<-arrived // the call is in flight on its conn
	c.Close()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight call after Close: %v", err)
	}
	// The in-flight conn must have been closed on return, not pooled.
	if idle := c.IdleConns(); idle != 0 {
		t.Errorf("IdleConns = %d after Close raced an in-flight call, want 0", idle)
	}
}

func TestPoolConnNotPoisonedAfterContextTimeout(t *testing.T) {
	// A call that times out abandons only its stream: the connection
	// stays pooled, the next call reuses it, and no deadline armed for
	// the timed-out call lingers to fail a later one.
	slow := make(chan struct{})
	dial := startServer(t, func(s *transport.Server) {
		s.Handle("slow", func(body []byte) ([]byte, error) {
			<-slow
			return []byte("late"), nil
		})
		s.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	})
	cd := &countingDial{dial: dial}
	c := transport.NewClient(cd.fn())
	defer c.Close()
	defer close(slow)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, "slow", nil); err == nil {
		t.Fatal("slow call under a 30ms ctx succeeded")
	}
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	// Still healthy long after the earlier deadline. This wait must be
	// real time — conn deadlines live in the kernel's clock, not the
	// injectable one — and only needs to outlast the 30ms deadline
	// armed above, so it cannot flake, only detect.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatalf("reused-conn call: %v", err)
	}
	if got := cd.count.Load(); got != 1 {
		t.Errorf("dialed %d conns, want 1 (a timed-out stream must not discard its conn)", got)
	}
}
