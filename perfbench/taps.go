package main

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"globedoc/internal/globeid"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// taps are the traced run's probes, wrapped around the calls a client's
// binder makes into the naming, location and transport layers. They
// record only while on is set, so one testbed serves an untraced and a
// traced phase.
type taps struct {
	on atomic.Bool

	resolveN, resolveNS atomic.Int64 // naming.OIDResolver.Resolve
	lookupN, lookupNS   atomic.Int64 // location.Resolver.Lookup

	dials      atomic.Int64
	bytesOut   atomic.Int64
	bytesIn    atomic.Int64
	roundTrips atomic.Int64
	// wireNS is the delay the paper's link profiles charge for the
	// traffic seen: one round trip per request/response turnaround plus
	// serialization of every byte, at TimeScale 1 whatever the testbed's
	// own scale.
	wireNS atomic.Int64
}

type tappedResolver struct {
	naming.OIDResolver
	t *taps
}

func (r tappedResolver) Resolve(ctx context.Context, name string) (globeid.OID, error) {
	if !r.t.on.Load() {
		return r.OIDResolver.Resolve(ctx, name)
	}
	start := time.Now()
	oid, err := r.OIDResolver.Resolve(ctx, name)
	r.t.resolveNS.Add(int64(time.Since(start)))
	r.t.resolveN.Add(1)
	return oid, err
}

type tappedLocator struct {
	location.Resolver
	t *taps
}

func (l tappedLocator) Lookup(ctx context.Context, fromSite string, oid globeid.OID) (location.LookupResult, error) {
	if !l.t.on.Load() {
		return l.Resolver.Lookup(ctx, fromSite, oid)
	}
	start := time.Now()
	res, err := l.Resolver.Lookup(ctx, fromSite, oid)
	l.t.lookupNS.Add(int64(time.Since(start)))
	l.t.lookupN.Add(1)
	return res, err
}

// dialTo returns an object.DialTo for a client at host whose connections
// count dials, bytes and turnarounds.
func (t *taps) dialTo(n *netsim.Network, host string) object.DialTo {
	return func(addr string) transport.DialFunc {
		link := n.Link(host, netsim.HostOf(addr))
		return func() (net.Conn, error) {
			c, err := n.Dial(host, addr)
			if err != nil {
				return nil, err
			}
			if t.on.Load() {
				t.dials.Add(1)
			}
			return &tapConn{Conn: c, t: t, link: link}, nil
		}
	}
}

type tapConn struct {
	net.Conn
	t         *taps
	link      netsim.LinkProfile
	wroteLast atomic.Bool
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 && c.t.on.Load() {
		c.t.bytesOut.Add(int64(n))
		c.t.wireNS.Add(int64(c.link.TransferTime(n)))
		c.wroteLast.Store(true)
	}
	return n, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.t.on.Load() {
		c.t.bytesIn.Add(int64(n))
		c.t.wireNS.Add(int64(c.link.TransferTime(n)))
		if c.wroteLast.Swap(false) {
			c.t.roundTrips.Add(1)
			c.t.wireNS.Add(int64(c.link.RTT()))
		}
	}
	return n, err
}

// counters is a snapshot of the telemetry counters the per-layer metrics
// are computed from; the difference of two snapshots covers one phase.
type counters struct {
	rpcCalls                                     uint64
	vcHits, vcMisses, vcEvictions, vcRevalidated uint64
	sigHits, pipelineRuns                        uint64
}

func readCounters(tel *telemetry.Telemetry) counters {
	return counters{
		rpcCalls:      tel.RPCCalls.Total(),
		vcHits:        tel.VCacheHits.Value(),
		vcMisses:      tel.VCacheMisses.Value(),
		vcEvictions:   tel.VCacheEvictions.Value(),
		vcRevalidated: tel.VCacheRevalidations.Value(),
		sigHits:       tel.SigCacheHits.Value(),
		pipelineRuns:  tel.PipelineRuns.Value(),
	}
}

func (c counters) sub(d counters) counters {
	return counters{
		rpcCalls:      c.rpcCalls - d.rpcCalls,
		vcHits:        c.vcHits - d.vcHits,
		vcMisses:      c.vcMisses - d.vcMisses,
		vcEvictions:   c.vcEvictions - d.vcEvictions,
		vcRevalidated: c.vcRevalidated - d.vcRevalidated,
		sigHits:       c.sigHits - d.sigHits,
		pipelineRuns:  c.pipelineRuns - d.pipelineRuns,
	}
}
