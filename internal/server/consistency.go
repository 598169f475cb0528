package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/globeid"
	"globedoc/internal/merkle"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// handleGetBundle serves a replica's complete state for consistency
// transfers. Everything in the bundle is public data the anonymous read
// protocol already exposes piecewise.
func (s *Server) handleGetBundle(body []byte) ([]byte, error) {
	oid, err := object.DecodeOIDRequest(body)
	if err != nil {
		return nil, err
	}
	b, err := s.ExportBundle(oid)
	if err != nil {
		return nil, err
	}
	return b.Marshal(), nil
}

// Puller implements pull-based replica consistency — the replication
// subobject of a secondary replica LR. It periodically asks the primary
// replica for its state version and, when the local copy is stale,
// transfers and validates the new state. Transfers prefer the
// Merkle-delta path (obj.getdelta, DESIGN.md §16), which moves only the
// elements whose cert-listed hash changed; any delta failure — remote
// error, decode error, broken chain, decline, or validation rejection —
// falls back to the full obj.getbundle transfer.
// Combined with the owner's certificate re-issuing this yields the
// "cache with TTL refresh" strategies of internal/replication at runtime.
type Puller struct {
	server      *Server
	oid         globeid.OID
	owner       string // principal the local replica is managed under
	primaryAddr string
	client      *transport.Client
	// Interval between version checks.
	Interval time.Duration
	// DisableDelta forces every transfer down the full-bundle path (the
	// bench ablation knob and an operational escape hatch).
	DisableDelta bool

	tel atomic.Pointer[telemetry.Telemetry]

	checks   atomic.Uint64
	pulls    atomic.Uint64
	failures atomic.Uint64

	fullPulls      atomic.Uint64
	deltaPulls     atomic.Uint64
	bytesFull      atomic.Uint64
	bytesDelta     atomic.Uint64
	deltaDeclines  atomic.Uint64
	deltaFallbacks atomic.Uint64

	mu      sync.Mutex
	stop    chan struct{}
	stopped sync.WaitGroup
}

// NewPuller builds a consistency puller keeping s's replica of oid in
// sync with the primary replica at primaryAddr. owner must be the
// principal the local replica was installed under.
func NewPuller(s *Server, oid globeid.OID, owner, primaryAddr string, dial object.DialTo, interval time.Duration) *Puller {
	return &Puller{
		server:      s,
		oid:         oid,
		owner:       owner,
		primaryAddr: primaryAddr,
		client:      transport.NewClient(dial(primaryAddr)),
		Interval:    interval,
	}
}

// SetTelemetry wires the puller's transfer counters (puller_pulls_total,
// puller_bytes_total, ...) to tel, surfacing them on /debugz. Unwired
// pullers record to the shared Default().
func (p *Puller) SetTelemetry(tel *telemetry.Telemetry) { p.tel.Store(tel) }

func (p *Puller) telemetry() *telemetry.Telemetry { return telemetry.Or(p.tel.Load()) }

// Checks returns how many version probes the puller has made.
func (p *Puller) Checks() uint64 { return p.checks.Load() }

// Pulls returns how many state transfers the puller has performed.
func (p *Puller) Pulls() uint64 { return p.pulls.Load() }

// Failures returns how many check/pull attempts errored.
func (p *Puller) Failures() uint64 { return p.failures.Load() }

// FullPulls returns how many transfers used the full-bundle path.
func (p *Puller) FullPulls() uint64 { return p.fullPulls.Load() }

// DeltaPulls returns how many transfers used the delta path.
func (p *Puller) DeltaPulls() uint64 { return p.deltaPulls.Load() }

// BytesFull returns the request+reply payload bytes moved by full pulls.
func (p *Puller) BytesFull() uint64 { return p.bytesFull.Load() }

// BytesDelta returns the request+reply payload bytes moved by delta
// pulls, including declined and failed attempts.
func (p *Puller) BytesDelta() uint64 { return p.bytesDelta.Load() }

// DeltaDeclines returns how many delta requests the primary declined
// with full-bundle-required (have-version evicted from its chain).
func (p *Puller) DeltaDeclines() uint64 { return p.deltaDeclines.Load() }

// DeltaFallbacks returns how many delta attempts failed (bad reply,
// broken chain, rejected bundle) and fell back to a full pull.
func (p *Puller) DeltaFallbacks() uint64 { return p.deltaFallbacks.Load() }

// CheckOnce probes the primary's version and pulls the new state if the
// local replica is stale. It reports whether a transfer happened.
func (p *Puller) CheckOnce(ctx context.Context) (bool, error) {
	p.checks.Add(1)
	remoteVersion, err := p.remoteVersion(ctx)
	if err != nil {
		p.failures.Add(1)
		return false, err
	}
	h, err := p.server.replica(p.oid)
	if err != nil {
		p.failures.Add(1)
		return false, err
	}
	have := h.doc.Version()
	if have >= remoteVersion {
		return false, nil
	}
	if !p.DisableDelta {
		pulled, derr := p.pullDelta(ctx, h, have)
		if derr == nil && pulled {
			p.pulls.Add(1)
			return true, nil
		}
		if derr != nil {
			p.deltaFallbacks.Add(1)
			p.telemetry().PullerDeltaFallbacks.Inc()
		}
		// Declines and every delta failure fall through to the full
		// transfer: a lying primary can at worst cost this round trip.
	}
	if err := p.pullFull(ctx); err != nil {
		p.failures.Add(1)
		return false, err
	}
	p.pulls.Add(1)
	return true, nil
}

// pullFull transfers and validates the primary's complete bundle.
func (p *Puller) pullFull(ctx context.Context) error {
	req := object.EncodeOIDRequest(p.oid)
	body, err := p.client.Call(ctx, object.OpGetBundle, req)
	if err != nil {
		return fmt.Errorf("server: pulling bundle: %w", err)
	}
	moved := uint64(len(req) + len(body))
	p.bytesFull.Add(moved)
	tel := p.telemetry()
	tel.PullerBytes.With("full").Add(moved)
	bundle, err := UnmarshalBundle(body)
	if err != nil {
		return err
	}
	if bundle.OID != p.oid {
		return fmt.Errorf("server: primary returned bundle for %s", bundle.OID.Short())
	}
	// Update validates the bundle (key vs OID, certificate signature,
	// element hashes) before installing — a lying primary cannot poison
	// the replica.
	if err := p.server.Update(bundle, p.owner); err != nil {
		return err
	}
	p.fullPulls.Add(1)
	tel.PullerPulls.With("full").Inc()
	tel.PullerElements.With("full").Add(uint64(len(bundle.Elements)))
	return nil
}

// pullDelta attempts the Merkle-delta transfer: fetch only the elements
// whose cert-listed hash changed since have, compose a candidate bundle
// from local unchanged elements plus the fetched ones, and hand it to
// the SAME Update validation a full pull goes through. Nothing in the
// reply is trusted before that validation passes; the chain check here
// exists to reject malformed or non-extending replies cheaply, before
// signature verification. It returns (false, nil) on a decline.
func (p *Puller) pullDelta(ctx context.Context, h *hostedReplica, have uint64) (bool, error) {
	req := EncodeDeltaRequest(p.oid, have)
	body, err := p.client.Call(ctx, OpGetDelta, req)
	if err != nil {
		return false, err
	}
	moved := uint64(len(req) + len(body))
	p.bytesDelta.Add(moved)
	tel := p.telemetry()
	tel.PullerBytes.With("delta").Add(moved)
	d, err := UnmarshalDeltaReply(body)
	if err != nil {
		return false, err
	}
	if d.FullRequired {
		p.deltaDeclines.Add(1)
		tel.PullerDeltaDeclines.Inc()
		return false, nil
	}
	h.mu.RLock()
	local := h.chain[len(h.chain)-1].header
	h.mu.RUnlock()
	if err := verifyDeltaChain(d, p.oid, local); err != nil {
		return false, err
	}
	elems := make([]document.Element, 0, len(d.Items))
	changed := uint64(0)
	for _, it := range d.Items {
		if it.Changed {
			elems = append(elems, it.Element)
			changed++
			continue
		}
		e, err := h.doc.Get(it.Name)
		if err != nil {
			return false, fmt.Errorf("server: delta claims %q unchanged but it is not held locally: %w", it.Name, err)
		}
		elems = append(elems, e)
	}
	bundle := &Bundle{
		OID:       p.oid,
		Key:       d.Key,
		Elements:  elems,
		Version:   d.NewVersion,
		Cert:      d.Cert,
		NameCerts: d.NameCerts,
	}
	if err := p.server.Update(bundle, p.owner); err != nil {
		return false, err
	}
	p.deltaPulls.Add(1)
	tel.PullerPulls.With("delta").Inc()
	tel.PullerElements.With("delta").Add(changed)
	return true, nil
}

// verifyDeltaChain checks that a delta reply's header chain really
// extends the local replica's state: the first header must carry the
// local head's content commitments (version, certificate hash, element
// root — Prev is excluded, since two replicas that converged through
// different histories legitimately disagree on it), consecutive headers
// must be hash-linked with strictly increasing versions, and the last
// header must commit to exactly the certificate and element set the
// reply proposes. A reply that fails here is discarded before any
// signature work.
func verifyDeltaChain(d *DeltaReply, oid globeid.OID, local *VersionHeader) error {
	if len(d.Headers) == 0 {
		return fmt.Errorf("server: delta reply carries no version headers")
	}
	for _, hd := range d.Headers {
		if hd.OID != oid {
			return fmt.Errorf("server: delta header names object %s", hd.OID.Short())
		}
	}
	first := d.Headers[0]
	if first.Version != local.Version || first.CertHash != local.CertHash || first.ElemRoot != local.ElemRoot {
		return fmt.Errorf("server: delta chain does not start at the local version %d", local.Version)
	}
	for i := 1; i < len(d.Headers); i++ {
		prev, cur := d.Headers[i-1], d.Headers[i]
		if cur.Version <= prev.Version {
			return fmt.Errorf("server: delta chain versions not increasing at %d", cur.Version)
		}
		if cur.Prev != prev.Hash() {
			return fmt.Errorf("server: delta chain broken between versions %d and %d", prev.Version, cur.Version)
		}
	}
	last := d.Headers[len(d.Headers)-1]
	if last.Version != d.NewVersion {
		return fmt.Errorf("server: delta chain head is version %d, reply claims %d", last.Version, d.NewVersion)
	}
	if d.Cert == nil {
		return fmt.Errorf("server: delta reply has no integrity certificate")
	}
	if last.CertHash != globeid.HashElement(d.Cert.Marshal()) {
		return fmt.Errorf("server: delta chain head does not commit to the reply certificate")
	}
	leaves := make(map[string][globeid.Size]byte, len(d.Items))
	for _, it := range d.Items {
		entry, err := d.Cert.Lookup(it.Name)
		if err != nil {
			return fmt.Errorf("server: delta item %q not in reply certificate", it.Name)
		}
		leaves[it.Name] = entry.Hash
	}
	if last.ElemRoot != merkle.RootFromLeaves(leaves) {
		return fmt.Errorf("server: delta chain head does not commit to the reply element set")
	}
	return nil
}

func (p *Puller) remoteVersion(ctx context.Context) (uint64, error) {
	body, err := p.client.Call(ctx, object.OpVersion, object.EncodeOIDRequest(p.oid))
	if err != nil {
		return 0, err
	}
	r := enc.NewReader(body)
	v := r.Uvarint()
	if err := r.Finish(); err != nil {
		return 0, err
	}
	return v, nil
}

// Start launches the periodic check loop; ctx cancellation and Stop
// both halt it. Calling Start twice without Stop is a no-op.
func (p *Puller) Start(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		return
	}
	stop := make(chan struct{})
	p.stop = stop
	p.stopped.Add(1)
	go func() {
		defer p.stopped.Done()
		ticker := time.NewTicker(p.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
				_, _ = p.CheckOnce(ctx) // failures are counted; loop continues
			}
		}
	}()
}

// Stop halts the loop and releases the connection.
func (p *Puller) Stop() {
	p.mu.Lock()
	stop := p.stop
	p.stop = nil
	p.mu.Unlock()
	if stop != nil {
		close(stop)
		p.stopped.Wait()
	}
	p.client.Close()
}
