package transport

import (
	"context"
	"fmt"
	"net"
	"time"

	"globedoc/internal/telemetry"
)

// DefaultMaxConns is the per-client connection bound used when
// PoolConfig.MaxConns is zero.
const DefaultMaxConns = 4

// PoolConfig bounds a Client's connection pool.
type PoolConfig struct {
	// MaxConns bounds how many connections the client holds open to its
	// server at once. 0 means DefaultMaxConns.
	MaxConns int
	// MaxIdle, when negative, disables idle pooling: a connection closes
	// as soon as its last in-flight stream finishes. Otherwise idle
	// connections stay open for reuse (within MaxConns).
	MaxIdle int
	// IdleTimeout, when positive, discards idle connections that have
	// sat unused longer than this. Reaping is lazy: a stale conn is
	// closed when a call would otherwise reuse it.
	IdleTimeout time.Duration
	// StreamBudget bounds concurrent streams (in-flight calls) per
	// connection (0 = DefaultStreamBudget), so a client carries up to
	// MaxConns × StreamBudget calls in flight.
	StreamBudget int
}

func (p PoolConfig) maxConns() int {
	if p.MaxConns > 0 {
		return p.MaxConns
	}
	return DefaultMaxConns
}

func (p PoolConfig) streamBudget() int {
	if p.StreamBudget > 0 {
		return p.StreamBudget
	}
	return DefaultStreamBudget
}

// dialContext runs dial, bounded by DialTimeout and ctx. The underlying
// DialFunc has no cancellation surface, so on timeout or cancellation
// the late connection (if any) is closed when it eventually arrives.
func (c *Client) dialContext(ctx context.Context) (net.Conn, error) {
	if c.DialTimeout <= 0 && ctx.Done() == nil {
		return c.dial()
	}
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		conn, err := c.dial()
		ch <- result{conn, err}
	}()
	reapLate := func() {
		go func() {
			if r := <-ch; r.conn != nil {
				r.conn.Close()
			}
		}()
	}
	var timeout <-chan time.Time
	if c.DialTimeout > 0 {
		t := time.NewTimer(c.DialTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-timeout:
		reapLate()
		return nil, fmt.Errorf("%w after %v", ErrDialTimeout, c.DialTimeout)
	case <-ctx.Done():
		reapLate()
		return nil, ctx.Err()
	}
}

// Close closes every idle connection and marks busy ones draining: their
// in-flight calls finish, and the last stream out closes the conn. A
// later Call reopens the pool.
func (c *Client) Close() {
	tel := telemetry.Or(c.Telemetry)
	c.muxMu.Lock()
	mconns := c.muxConns
	c.muxConns = nil
	c.muxWakeLocked()
	c.muxMu.Unlock()
	for _, mc := range mconns {
		mc.mu.Lock()
		if mc.dead {
			mc.mu.Unlock()
			continue
		}
		if mc.inflight > 0 {
			mc.draining = true
			mc.mu.Unlock()
			continue
		}
		mc.dead = true
		mc.deadErr = ErrClosed
		mc.mu.Unlock()
		mc.conn.Close()
		tel.PoolConns.Add(-1)
	}
}

// ConnsInUse reports how many connections are currently serving calls —
// a test and debugging aid. A conn counts once however many streams it
// carries.
func (c *Client) ConnsInUse() int {
	return c.countConns(func(inflight int) bool { return inflight > 0 })
}

// IdleConns reports how many live connections have no streams in flight.
func (c *Client) IdleConns() int {
	return c.countConns(func(inflight int) bool { return inflight == 0 })
}

// countConns counts the live connections whose in-flight stream count
// satisfies match.
func (c *Client) countConns(match func(inflight int) bool) int {
	c.muxMu.Lock()
	defer c.muxMu.Unlock()
	n := 0
	for _, mc := range c.muxConns {
		mc.mu.Lock()
		if !mc.dead && match(mc.inflight) {
			n++
		}
		mc.mu.Unlock()
	}
	return n
}
