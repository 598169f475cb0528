// Package core implements the GlobeDoc security architecture — the
// paper's primary contribution (§3): end-to-end integrity guarantees for
// Web documents replicated on untrusted servers.
//
// The exported Client runs the complete secure-browsing pipeline of
// Figure 3 for every fetch:
//
//  1. resolve the object name to a self-certifying OID (secure naming
//     service);
//  2. find the closest replica (untrusted location service);
//  3. retrieve the object's public key from the replica and check
//     SHA-1(key) == OID — self-certification, no CA involved;
//  4. optionally retrieve CA-signed identity certificates and match
//     them against the user's trusted-CA list ("Certified as: ...");
//  5. retrieve the integrity certificate and verify its signature
//     under the object key;
//  6. retrieve the requested page element;
//  7. verify authenticity (hash), consistency (requested name) and
//     freshness (validity interval).
//
// Every fetch is traced as one span tree: a root fetch.secure span with
// one child per pipeline step (the 14 steps of PipelineSteps; DESIGN.md
// §8 maps them to the paper's Figure 3). The per-phase Timing the
// benchmark harness reads is derived from those spans' durations, so the
// tracer and the Figure-4 numbers can never disagree.
//
// The client is safe for concurrent use. Concurrent fetches of the same
// cold OID share a single pipeline run (singleflight, when binding
// caching is on), RPCs to one replica run in parallel over a bounded
// connection pool, and FetchAll retrieves elements with a bounded worker
// pool. Every public method takes a context.Context that cancels slot
// waits, dials and in-flight RPCs. See DESIGN.md §9 for the full
// concurrency model.
package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
)

// Root span names for the operations this client runs.
const (
	SpanSecureFetch = "fetch.secure"   // one FetchNamed/Fetch
	SpanFetchAll    = "fetch.all"      // whole-object download
	SpanElements    = "fetch.elements" // verified table of contents
)

// Span names for the secure-binding pipeline steps (paper §3.2, Fig. 3).
// A cold, identity-checking fetch runs all fourteen; a warm fetch skips
// steps 3–10 (that is the point of the verified-binding cache).
const (
	StepNameResolve        = "name.resolve"                // 1: hybrid name -> OID
	StepBindingCache       = "binding.cache"               // 2: verified-binding cache consult
	StepLocationLookup     = "location.lookup"             // 3: OID -> contact addresses
	StepDial               = "replica.dial"                // 4: connect + liveness ping
	StepKeyFetch           = "key.fetch"                   // 5: retrieve object public key
	StepKeyVerify          = "key.verify"                  // 6: SHA-1(key) == OID
	StepNameCertFetch      = "namecert.fetch"              // 7: retrieve identity certificates
	StepNameCertVerify     = "namecert.verify"             // 8: match against trusted CAs
	StepCertFetch          = "icert.fetch"                 // 9: retrieve integrity certificate
	StepCertVerify         = "icert.verify"                // 10: verify signature under object key
	StepElementFetch       = "element.fetch"               // 11: content transfer
	StepVerifyConsistency  = "element.verify.consistency"  // 12: entry matches requested name
	StepVerifyAuthenticity = "element.verify.authenticity" // 13: SHA-1(content) == entry hash
	StepVerifyFreshness    = "element.verify.freshness"    // 14: validity interval covers now
)

// StepBatchFetch is the span recorded when FetchAll retrieves the
// document's not-yet-cached elements in one batched GetElements exchange
// (transport v2 pipelines it over one connection). Each element served
// from the batch credits an amortized share of the exchange to its
// Timing.ElementFetch; verification still runs per element.
const StepBatchFetch = "fetch.batch"

// StepVCacheLookup is the span recorded when the verified-content cache
// is consulted for a certificate-fresh element hash (Options.VCache).
// A hit replaces steps 11–13: the bytes were verified on insertion and
// the current verified certificate still vouches for their hash.
const StepVCacheLookup = "vcache.lookup"

// PipelineSteps lists the 14 binding-pipeline step span names in
// execution order.
var PipelineSteps = []string{
	StepNameResolve,
	StepBindingCache,
	StepLocationLookup,
	StepDial,
	StepKeyFetch,
	StepKeyVerify,
	StepNameCertFetch,
	StepNameCertVerify,
	StepCertFetch,
	StepCertVerify,
	StepElementFetch,
	StepVerifyConsistency,
	StepVerifyAuthenticity,
	StepVerifyFreshness,
}

// ErrSecurityCheckFailed wraps every verification failure: whatever the
// replica or the intermediate services did, the client refused the data.
// The paper's proxy renders this as the "Security Check Failed" page.
var ErrSecurityCheckFailed = errors.New("core: security check failed")

// ErrBindingFailed wraps every failure to establish a verified binding —
// name resolved, but no candidate replica could be located, dialled and
// verified. Callers distinguish it from per-element failures with
// errors.Is; the underlying cause (e.g. transport.ErrDialTimeout,
// object.ErrNoReplica, or a SecurityError) stays reachable through
// errors.Is/As too.
var ErrBindingFailed = errors.New("core: binding establishment failed")

// SecurityError carries which phase of the pipeline rejected the fetch.
type SecurityError struct {
	Phase string // e.g. "self-certification", "integrity-certificate", "element"
	Err   error
}

func (e *SecurityError) Error() string {
	return fmt.Sprintf("core: security check failed at %s: %v", e.Phase, e.Err)
}

// Unwrap makes errors.Is(err, ErrSecurityCheckFailed) and errors.Is
// against the underlying cert/globeid errors both work.
func (e *SecurityError) Unwrap() []error { return []error{ErrSecurityCheckFailed, e.Err} }

// Timing is the per-phase breakdown of one secure fetch, mirroring the
// timers the paper placed "in various parts of the proxy and server
// code". Each field is filled from the corresponding pipeline span's
// duration (Bind sums location.lookup and replica.dial; ElementVerify
// sums the three element.verify.* steps).
type Timing struct {
	NameResolve    time.Duration // hybrid name -> OID
	Bind           time.Duration // location lookup + connect
	KeyFetch       time.Duration // retrieve object public key
	KeyVerify      time.Duration // SHA-1(key) == OID
	NameCertFetch  time.Duration // retrieve CA identity certificates
	NameCertVerify time.Duration // match against trusted CAs
	CertFetch      time.Duration // retrieve integrity certificate
	CertVerify     time.Duration // verify certificate signature
	ElementFetch   time.Duration // retrieve page element content
	ElementVerify  time.Duration // hash + freshness + consistency checks
}

// Security returns the time spent on security-specific operations — the
// paper's Figure 4 numerator: "retrieving the object's public key,
// verifying its SHA-1 hash matches the object Id, retrieving the object
// certificate and verifying it, computing the hash of the page element
// and verifying it against the hash in the certificate".
func (t Timing) Security() time.Duration {
	return t.KeyFetch + t.KeyVerify + t.NameCertFetch + t.NameCertVerify +
		t.CertFetch + t.CertVerify + t.ElementVerify
}

// Total returns the full client-perceived fetch time.
func (t Timing) Total() time.Duration {
	return t.NameResolve + t.Bind + t.Security() + t.ElementFetch
}

// OverheadPercent returns security time as a percentage of total.
func (t Timing) OverheadPercent() float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	return 100 * float64(t.Security()) / float64(total)
}

// Add accumulates u into t (for averaging across iterations).
func (t *Timing) Add(u Timing) {
	t.NameResolve += u.NameResolve
	t.Bind += u.Bind
	t.KeyFetch += u.KeyFetch
	t.KeyVerify += u.KeyVerify
	t.NameCertFetch += u.NameCertFetch
	t.NameCertVerify += u.NameCertVerify
	t.CertFetch += u.CertFetch
	t.CertVerify += u.CertVerify
	t.ElementFetch += u.ElementFetch
	t.ElementVerify += u.ElementVerify
}

// Scale divides every phase by n (for averaging).
func (t Timing) Scale(n int) Timing {
	if n <= 0 {
		return t
	}
	d := time.Duration(n)
	return Timing{
		NameResolve:    t.NameResolve / d,
		Bind:           t.Bind / d,
		KeyFetch:       t.KeyFetch / d,
		KeyVerify:      t.KeyVerify / d,
		NameCertFetch:  t.NameCertFetch / d,
		NameCertVerify: t.NameCertVerify / d,
		CertFetch:      t.CertFetch / d,
		CertVerify:     t.CertVerify / d,
		ElementFetch:   t.ElementFetch / d,
		ElementVerify:  t.ElementVerify / d,
	}
}

// FetchResult is one securely fetched page element.
type FetchResult struct {
	Element document.Element
	// CertifiedAs is the real-world subject from the first identity
	// certificate matching the user's trust list, or "" when identity
	// certification was not requested.
	CertifiedAs string
	// ReplicaAddr is the contact address the element came from.
	ReplicaAddr string
	// Timing is the per-phase breakdown.
	Timing Timing
	// WarmBinding reports whether the verified binding cache was used
	// (skipping phases 1–5).
	WarmBinding bool
	// SharedBinding reports that this cold fetch joined a concurrent
	// fetch's binding pipeline run instead of running its own
	// (singleflight deduplication).
	SharedBinding bool
	// FromCache reports that the element bytes came from the
	// verified-content cache: the current verified certificate lists
	// their hash, so no element transfer or hashing was needed.
	FromCache bool
}

// verifiedBinding is a cached, fully verified attachment to one object
// replica: connection, self-certified key, and checked certificate.
type verifiedBinding struct {
	client      *object.Client
	key         keys.PublicKey
	icert       *cert.IntegrityCertificate
	certifiedAs string
}

// pipeline is the in-flight observability state of one secure operation:
// the root span every step hangs off, and the Timing being accumulated.
// Timing fields are credited from the step spans' own durations, so the
// benchmark harness and the tracer always report the same intervals.
type pipeline struct {
	tel    *telemetry.Telemetry
	root   *telemetry.Span
	timing Timing
}

// step runs one named pipeline step under a child span, crediting the
// span's duration to the given Timing field (nil to time without
// crediting).
func (p *pipeline) step(name string, field *time.Duration, f func() error) error {
	sp := p.root.StartChild(name)
	err := f()
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	sp.End()
	if field != nil {
		*field += sp.Duration()
	}
	return err
}

// fresh returns a pipeline sharing this one's trace but with zeroed
// timing — a fetch that re-binds or fails over reports the timing of
// the attempt that succeeded, not the sum of all attempts. FetchAll's
// workers use it too: each element's pipeline hangs off the shared root
// span with its own Timing.
func (p *pipeline) fresh() *pipeline {
	return &pipeline{tel: p.tel, root: p.root}
}

// Client runs the GlobeDoc security pipeline. Construct with NewClient;
// the zero value is not usable. All methods are safe for concurrent use.
type Client struct {
	// Binder performs name resolution, location and connection. Treat as
	// read-only after NewClient (the benchmark harness reaches through
	// it to flush resolver caches).
	Binder *object.Binder

	trust           *cert.TrustStore
	requireIdentity bool
	cacheBindings   bool
	retry           *transport.RetryPolicy
	telem           *telemetry.Telemetry
	nowFn           func() time.Time
	fetchWorkers    int
	noSingleflight  bool
	noBatchFetch    bool
	vcache          *vcache.Cache
	maxBindings     int
	selector        Selector

	mu         sync.Mutex
	cache      map[globeid.OID]*list.Element // of *bindingEntry
	bindingLRU *list.List                    // front = most recently used
	flights    map[globeid.OID]*flight
}

// bindingEntry is one verified-binding cache slot, kept in LRU order so
// many-OID workloads evict the coldest connection instead of growing
// without bound.
type bindingEntry struct {
	oid globeid.OID
	vb  *verifiedBinding
}

// NewClient returns a security client over binder configured by opts.
// It rejects nonsense options (negative worker/pool counts, negative
// timeouts on the binder) with errors wrapping ErrInvalidOptions; the
// zero Options is always valid. When opts.PoolSize is positive it is
// installed as the binder's per-replica connection bound before any
// connection is made.
func NewClient(binder *object.Binder, opts Options) (*Client, error) {
	if err := opts.validate(binder); err != nil {
		return nil, err
	}
	if opts.PoolSize > 0 {
		binder.Transport.Pool.MaxConns = opts.PoolSize
	}
	nowFn := opts.Now
	if nowFn == nil {
		nowFn = time.Now
	}
	workers := opts.FetchWorkers
	if workers == 0 {
		workers = DefaultFetchWorkers
	}
	maxBindings := opts.MaxBindings
	if maxBindings == 0 {
		maxBindings = DefaultMaxBindings
	}
	if opts.VCache != nil {
		tel := telemetry.Or(opts.Telemetry)
		opts.VCache.WireMetrics(tel.VCacheEvictions, tel.SigCacheHits)
	}
	if opts.TraceSampleRate != nil {
		telemetry.Or(opts.Telemetry).Tracer.SetSampleRate(*opts.TraceSampleRate)
	}
	selector := opts.Selector
	if selector == nil {
		selector = HealthRankedSelector{}
	}
	return &Client{
		Binder:          binder,
		trust:           opts.Trust,
		requireIdentity: opts.RequireIdentity,
		cacheBindings:   opts.CacheBindings,
		retry:           opts.Retry,
		telem:           opts.Telemetry,
		nowFn:           nowFn,
		fetchWorkers:    workers,
		noSingleflight:  opts.DisableSingleflight,
		noBatchFetch:    opts.DisableBatchFetch,
		vcache:          opts.VCache,
		maxBindings:     maxBindings,
		selector:        selector,
		cache:           make(map[globeid.OID]*list.Element),
		bindingLRU:      list.New(),
		flights:         make(map[globeid.OID]*flight),
	}, nil
}

// CachesBindings reports whether verified bindings are kept warm across
// fetches (Options.CacheBindings).
func (c *Client) CachesBindings() bool { return c.cacheBindings }

func (c *Client) tel() *telemetry.Telemetry { return telemetry.Or(c.telem) }

func (c *Client) now() time.Time { return c.nowFn() }

// secErr records the failed check in security_check_failures_total{phase}
// and returns the wrapped SecurityError.
func (c *Client) secErr(phase string, err error) error {
	c.tel().SecurityCheckFailures.With(phase).Inc()
	return &SecurityError{Phase: phase, Err: err}
}

// Close drops all cached bindings and their connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for oid, node := range c.cache {
		node.Value.(*bindingEntry).vb.client.Close()
		c.bindingLRU.Remove(node)
		delete(c.cache, oid)
	}
	c.tel().BindingCacheEntries.Set(0)
}

// FlushBindings drops cached bindings (cold-path benchmarks).
func (c *Client) FlushBindings() { c.Close() }

// FetchNamed securely fetches one element of the object bound to name.
// ctx cancels name resolution, binding establishment and the element
// transfer.
func (c *Client) FetchNamed(ctx context.Context, name, element string) (FetchResult, error) {
	ctx = orBackground(ctx)
	ctx, p := c.newPipeline(ctx, SpanSecureFetch)
	p.root.Annotate("object", name)
	p.root.Annotate("element", element)
	var oid globeid.OID
	err := p.step(StepNameResolve, &p.timing.NameResolve, func() error {
		var rerr error
		oid, rerr = c.Binder.Names.Resolve(ctx, name)
		return rerr
	})
	if err != nil {
		p.finish("error")
		return FetchResult{}, fmt.Errorf("core: resolving %q: %w", name, err)
	}
	return c.finishFetch(ctx, p, oid, element)
}

// Fetch securely fetches one element of the object identified by oid.
func (c *Client) Fetch(ctx context.Context, oid globeid.OID, element string) (FetchResult, error) {
	ctx = orBackground(ctx)
	ctx, p := c.newPipeline(ctx, SpanSecureFetch)
	p.root.Annotate("oid", oid.Short())
	p.root.Annotate("element", element)
	return c.finishFetch(ctx, p, oid, element)
}

func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		//lint:ignore ctxfirst nil-ctx compatibility: legacy callers predate the ctx-first API and a nil ctx must mean "no cancellation", not a panic
		return context.Background()
	}
	return ctx
}

// newPipeline starts the root span of one client operation and threads
// its span context into ctx, so every RPC issued below it — including
// name resolution — joins the same trace, and the servers on the far
// side adopt it for their serve spans. A caller that already carries a
// trace in ctx (the proxy's per-request span) is joined rather than
// shadowed, keeping one trace per user-visible request.
func (c *Client) newPipeline(ctx context.Context, rootName string) (context.Context, *pipeline) {
	tel := c.tel()
	p := &pipeline{tel: tel, root: tel.Tracer.StartSpanFrom(rootName, telemetry.SpanContextFrom(ctx))}
	return telemetry.ContextWith(ctx, p.root.Context()), p
}

func (p *pipeline) finish(outcome string) {
	p.root.Annotate("outcome", outcome)
	p.root.End()
}

// finishFetch runs the bind+fetch loop below name resolution, closes the
// root span, and feeds the fetch-latency and security-overhead
// histograms from the same Timing the caller receives.
func (c *Client) finishFetch(ctx context.Context, p *pipeline, oid globeid.OID, element string) (FetchResult, error) {
	res, err := c.fetch(ctx, p, oid, element)
	if err != nil {
		p.finish("error")
		return FetchResult{}, err
	}
	p.finish("ok")
	// Exemplar: stamp the latency bucket with this trace's ID (when the
	// trace is exported) so an outlier bucket links to a concrete trace.
	var exemplar uint64
	if sc := p.root.Context(); sc.Sampled {
		exemplar = sc.TraceID
	}
	p.tel.FetchLatency.ObserveExemplar(res.Timing.Total().Seconds(), exemplar)
	p.tel.SecurityOverhead.Observe(res.Timing.OverheadPercent())
	return res, nil
}

// recovery is classify's decision for one failed fetch attempt.
type recovery int

const (
	giveUp   recovery = iota // end the fetch with its recorded error
	rebind                   // drop the binding and bind afresh, excluding nothing
	failOver                 // exclude the replica and bind to the next candidate
)

// classify decides what one failed fetch attempt means. Any failure on a
// warm binding earns a re-bind: a stale pooled connection, a lapsed
// cached certificate and bytes that certificate no longer vouches for
// (the replica moved on to a newer version) look alike from here, and a
// fresh binding re-verifies everything. A freshly verified binding whose
// replica then fails the transfer or the name and hash checks is
// abandoned for the next candidate — detection degrades an attack or a
// stalled replica to a slower fetch, as long as an honest replica
// remains. A binding failure (every candidate already tried) and a fresh
// certificate that is already stale (a replica replaying old signed
// state) end the fetch.
func classify(err error, warm bool) recovery {
	switch {
	case errors.Is(err, ErrBindingFailed):
		return giveUp
	case warm:
		return rebind
	case errors.Is(err, cert.ErrFreshness):
		return giveUp
	}
	return failOver
}

// fetch is the one attempt loop behind Fetch and FetchNamed. It owns the
// set of replicas excluded for this operation and sends every failed
// attempt through classify. Each retry runs on a fresh pipeline, so the
// result reports the timing of the attempt that succeeded. Re-binds are
// bounded by the refresh policy's attempts. A failed binding is dropped,
// and — except for a warm certificate lapse, whose cached bytes the
// re-bind may still serve — so is the content it vouched for. A fetch
// that fails returns its first security error if it met one, counting
// it in security_check_failures_total{phase} only then, and otherwise
// its first error; failures that were re-bound are not recorded.
func (c *Client) fetch(ctx context.Context, p *pipeline, oid globeid.OID, element string) (FetchResult, error) {
	var (
		excluded map[string]bool
		rebinds  int
		firstErr error
		firstSec *SecurityError
	)
	for attempt := p; ; attempt = p.fresh() {
		b, res, err := c.fetchAttempt(ctx, attempt, oid, element, excluded)
		if err == nil {
			return res, nil
		}
		if b.vb != nil {
			c.dropBinding(oid, b.vb)
		}
		if ctx.Err() != nil {
			// Cancellation is the caller's decision, not a replica fault.
			return FetchResult{}, err
		}
		next := classify(err, b.warm)
		if next == rebind && rebinds == c.refreshPolicy().Attempts() {
			next = giveUp
		}
		var sec *SecurityError
		if b.vb != nil {
			// The binding was obtained, so err came from the element body.
			errors.As(err, &sec)
			addr := b.vb.client.Addr()
			if next == rebind && errors.Is(err, cert.ErrFreshness) {
				c.countRevalidation(b.vb, element)
			} else {
				c.invalidateContent(oid)
				if next != giveUp {
					p.tel.Failovers.Inc()
					if sec != nil {
						// Detected tampering passed the transport's health
						// sampling as successful RPCs: record it so the
						// selector stops preferring this replica.
						p.tel.Health.RecordFailure(addr)
					}
				}
			}
			if next == failOver {
				if excluded == nil {
					excluded = make(map[string]bool)
				}
				excluded[addr] = true
			}
		}
		if next == rebind {
			rebinds++
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if firstSec == nil {
			firstSec = sec
		}
		if next == giveUp {
			if firstSec != nil {
				p.tel.SecurityCheckFailures.With(firstSec.Phase).Inc()
				return FetchResult{}, firstSec
			}
			return FetchResult{}, firstErr
		}
	}
}

// bound is one operation's hold on a verified binding: the binding, and
// whether it came warm from the cache or was shared with a concurrent
// establishment.
type bound struct {
	vb           *verifiedBinding
	warm, shared bool
}

// result builds the FetchResult for elem served over b.
func (b bound) result(elem document.Element, t Timing, fromCache bool) FetchResult {
	return FetchResult{
		Element:       elem,
		CertifiedAs:   b.vb.certifiedAs,
		ReplicaAddr:   b.vb.client.Addr(),
		Timing:        t,
		WarmBinding:   b.warm,
		SharedBinding: b.shared,
		FromCache:     fromCache,
	}
}

// fetchAttempt is one pass of the fetch loop: consult the verified-binding
// cache (step 2), establish a binding on a miss while skipping the
// excluded replicas, and run the per-element body. The returned binding
// is the zero value when none was obtained.
func (c *Client) fetchAttempt(ctx context.Context, p *pipeline, oid globeid.OID, element string, excluded map[string]bool) (bound, FetchResult, error) {
	now := c.now()
	var b bound
	cacheSp := p.root.StartChild(StepBindingCache)
	b.vb, b.warm = c.cachedBinding(oid, now)
	if b.warm {
		cacheSp.Annotate("outcome", "hit")
	} else {
		cacheSp.Annotate("outcome", "miss")
	}
	if !c.cacheBindings {
		cacheSp.Annotate("enabled", "false")
	}
	cacheSp.End()
	if c.cacheBindings {
		if b.warm {
			p.tel.BindingCacheHits.Inc()
		} else {
			p.tel.BindingCacheMisses.Inc()
		}
	}
	if !b.warm {
		vb, shared, err := c.establishBinding(ctx, p, oid, now, excluded)
		if err != nil {
			return bound{}, FetchResult{}, err
		}
		b.vb, b.shared = vb, shared
	}
	res, err := c.fetchElement(ctx, p, b, element, now, prefetch{})
	if err != nil {
		return b, FetchResult{}, err
	}
	if !b.warm && !b.shared && !c.cacheBindings {
		// Nothing else can reach this binding: not cached, not shared.
		b.vb.client.Close()
	}
	return b, res, nil
}

// fetchElement is the per-element body Fetch and FetchAll share. The
// verified certificate in hand names the element's hash and validity
// interval, so the verified-content cache (Options.VCache) is consulted
// before any bytes move: a fresh entry with cached bytes is served as
// is; otherwise the bytes come from FetchAll's batch prefetch or from
// the replica (step 11), pass the consistency, authenticity and
// freshness checks (steps 12–14), and are cached. An entry whose
// validity lapsed fails freshness before any transfer — the fetch loop
// re-binds a warm binding to revalidate by certificate only, while a
// freshly fetched certificate that is already stale is replayed state.
// Failed checks are returned as an uncounted *SecurityError; the caller
// counts the one it returns.
func (c *Client) fetchElement(ctx context.Context, p *pipeline, b bound, element string, now time.Time, batch prefetch) (FetchResult, error) {
	var vcEntry cert.ElementEntry
	vcFresh := false
	if c.vcache != nil {
		if entry, cerr := b.vb.icert.CheckConsistency(element); cerr == nil {
			if ferr := entry.CheckFreshness(now); ferr != nil {
				return FetchResult{}, &SecurityError{Phase: "freshness", Err: ferr}
			}
			vcEntry, vcFresh = entry, true
			if cached, hit := c.vcacheGet(p, entry, now); hit {
				return b.result(document.Element{Name: element, ContentType: cached.ContentType, Data: cached.Data}, p.timing, true), nil
			}
		}
	}
	var elem document.Element
	if pre, ok := batch.elems[element]; ok {
		// Served from the batch exchange: credit this element's amortized
		// slice of the batch duration to ElementFetch so the Figure-4
		// phase accounting still describes where the time went.
		sp := p.root.StartChild(StepElementFetch)
		sp.Annotate("source", "batch")
		sp.End()
		p.timing.ElementFetch += batch.share
		elem = pre
	} else {
		err := p.step(StepElementFetch, &p.timing.ElementFetch, func() error {
			var ferr error
			elem, ferr = b.vb.client.GetElement(ctx, element)
			return ferr
		})
		if err != nil {
			return FetchResult{}, fmt.Errorf("core: fetching element %q: %w", element, err)
		}
	}
	if err := c.verifyElement(p, b.vb, element, elem.Data, now); err != nil {
		return FetchResult{}, &SecurityError{Phase: "element", Err: err}
	}
	if vcFresh {
		c.vcache.Put(b.vb.icert.ObjectID, vcEntry.Hash, vcache.Element{ContentType: elem.ContentType, Data: elem.Data}, vcEntry.Expires)
	}
	return b.result(elem, p.timing, false), nil
}

// vcacheGet consults the verified-content cache for an entry the caller
// has just checked for consistency and freshness against the current
// verified certificate, under a vcache.lookup span. It counts the
// hit/miss and re-arms a hit's TTL to the entry's validity bound.
func (c *Client) vcacheGet(p *pipeline, entry cert.ElementEntry, now time.Time) (vcache.Element, bool) {
	sp := p.root.StartChild(StepVCacheLookup)
	cached, hit := c.vcache.Get(entry.Hash, now, entry.Expires)
	if hit {
		sp.Annotate("outcome", "hit")
	} else {
		sp.Annotate("outcome", "miss")
	}
	sp.End()
	if hit {
		p.tel.VCacheHits.Inc()
	} else {
		p.tel.VCacheMisses.Inc()
	}
	return cached, hit
}

// countRevalidation counts a warm certificate lapse that is about to be
// revalidated by re-binding while the element's bytes are still cached,
// so vcache_revalidations_total measures transfers avoided.
func (c *Client) countRevalidation(vb *verifiedBinding, element string) {
	if c.vcache == nil {
		return
	}
	if entry, err := vb.icert.CheckConsistency(element); err == nil && c.vcache.Contains(entry.Hash) {
		c.tel().VCacheRevalidations.Inc()
	}
}

// verifyElement runs the three per-element checks as separate pipeline
// steps, all credited to Timing.ElementVerify. The decomposed cert
// methods are the same code VerifyElement composes, in the same order.
func (c *Client) verifyElement(p *pipeline, vb *verifiedBinding, element string, content []byte, now time.Time) error {
	var entry cert.ElementEntry
	if err := p.step(StepVerifyConsistency, &p.timing.ElementVerify, func() error {
		var cerr error
		entry, cerr = vb.icert.CheckConsistency(element)
		return cerr
	}); err != nil {
		return err
	}
	if err := p.step(StepVerifyAuthenticity, &p.timing.ElementVerify, func() error {
		return entry.CheckAuthenticity(content)
	}); err != nil {
		return err
	}
	return p.step(StepVerifyFreshness, &p.timing.ElementVerify, func() error {
		return entry.CheckFreshness(now)
	})
}

// establish performs phases 2–5: locate candidate replicas, then for
// each (nearest first) connect, self-certify the key, optionally certify
// identity, and verify the integrity certificate. A replica that fails
// ANY check — unreachable or malicious — is abandoned (counted in
// failovers_total) and the next candidate is tried, so a compromised
// near replica degrades a fetch to the next-nearest honest one rather
// than to an error. Only when every candidate fails does the fetch fail
// (the paper's worst case: denial of service), with the cause wrapped in
// ErrBindingFailed. Every run counts into binding_pipeline_runs_total —
// the singleflight dedupe assertions read it.
func (c *Client) establish(ctx context.Context, p *pipeline, oid globeid.OID, now time.Time, excluded map[string]bool) (*verifiedBinding, error) {
	p.tel.PipelineRuns.Inc()
	var candidates []location.ContactAddress
	err := p.step(StepLocationLookup, &p.timing.Bind, func() error {
		var lerr error
		candidates, _, lerr = c.Binder.Candidates(ctx, oid)
		return lerr
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBindingFailed, err)
	}
	// The Selector is the one ranking code path: it orders the location
	// service's candidates (by health, RTT and zone metadata for the
	// default HealthRankedSelector) and failover below simply walks that
	// order. The chosen ranking is retained per OID for /debugz.
	candidates = c.selector.Rank(candidates, p.tel.Health)
	if len(candidates) > 0 {
		ranked := make([]string, len(candidates))
		for i, ca := range candidates {
			ranked[i] = ca.Address
		}
		p.tel.Selection.Record(oid.Short(), c.selector.Name(), ranked)
	}
	lastErr := error(object.ErrNoReplica)
	for _, ca := range candidates {
		if excluded[ca.Address] {
			continue
		}
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		vb, err := c.verifyReplica(ctx, p, oid, ca.Address, now)
		if err != nil {
			lastErr = err
			p.tel.Failovers.Inc()
			// A failed verification is failure evidence against the
			// address even when every RPC succeeded at the transport
			// layer (a rogue replica serving a bad key or certificate),
			// so the selector demotes detected attackers exactly like
			// dead replicas.
			p.tel.Health.RecordFailure(ca.Address)
			continue
		}
		return vb, nil
	}
	return nil, fmt.Errorf("%w: %w", ErrBindingFailed, lastErr)
}

// verifyReplica runs phases 2b–5 against one replica address. The timing
// phases record the most recent attempt; Bind accumulates across
// attempts.
func (c *Client) verifyReplica(ctx context.Context, p *pipeline, oid globeid.OID, addr string, now time.Time) (*verifiedBinding, error) {
	// Most-recent-attempt semantics: a previous failed candidate's phase
	// times are discarded; only Bind keeps accumulating.
	p.timing.KeyFetch, p.timing.KeyVerify = 0, 0
	p.timing.NameCertFetch, p.timing.NameCertVerify = 0, 0
	p.timing.CertFetch, p.timing.CertVerify = 0, 0

	// Step 4: connect to the (untrusted) replica.
	var client *object.Client
	err := p.step(StepDial, &p.timing.Bind, func() error {
		var derr error
		client, derr = c.Binder.Connect(ctx, oid, addr)
		return derr
	})
	if err != nil {
		return nil, err
	}
	client.Site = c.Binder.Site

	fail := func(phase string, cause error) (*verifiedBinding, error) {
		client.Close()
		return nil, c.secErr(phase, cause)
	}

	// Steps 5–6: retrieve the object's public key and self-certify it.
	var pk keys.PublicKey
	err = p.step(StepKeyFetch, &p.timing.KeyFetch, func() error {
		var kerr error
		pk, kerr = client.GetPublicKey(ctx)
		return kerr
	})
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("core: fetching object key: %w", err)
	}
	err = p.step(StepKeyVerify, &p.timing.KeyVerify, func() error {
		return oid.Verify(pk)
	})
	if err != nil {
		return fail("self-certification", err)
	}

	// Steps 7–8 (optional): identity certificates against the user's CAs.
	certifiedAs := ""
	if c.trust != nil {
		var nameCerts []*cert.NameCertificate
		err = p.step(StepNameCertFetch, &p.timing.NameCertFetch, func() error {
			var nerr error
			nameCerts, nerr = client.GetNameCerts(ctx)
			return nerr
		})
		if err != nil {
			client.Close()
			return nil, fmt.Errorf("core: fetching identity certificates: %w", err)
		}
		var subject string
		err = p.step(StepNameCertVerify, &p.timing.NameCertVerify, func() error {
			var verr error
			subject, verr = c.trust.FirstTrusted(nameCerts, oid, now)
			return verr
		})
		if err == nil {
			certifiedAs = subject
		} else if c.requireIdentity {
			return fail("identity-certificate", err)
		}
	}

	// Steps 9–10: integrity certificate, verified under the object key.
	var icert *cert.IntegrityCertificate
	err = p.step(StepCertFetch, &p.timing.CertFetch, func() error {
		var cerr error
		icert, cerr = client.GetIntegrityCert(ctx)
		return cerr
	})
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("core: fetching integrity certificate: %w", err)
	}
	err = p.step(StepCertVerify, &p.timing.CertVerify, func() error {
		if c.vcache != nil {
			// Memoized verification: identical certificate signatures are
			// checked once per validity window, concurrent misses share
			// one in-flight check (signature_cache_hits_total).
			return icert.VerifySignatureUsing(oid, pk, func(k keys.PublicKey, message, sig []byte) error {
				return c.vcache.VerifySignature(k, message, sig, icert.MaxExpiry(), now)
			})
		}
		return icert.VerifySignature(oid, pk)
	})
	if err != nil {
		return fail("integrity-certificate", err)
	}

	return &verifiedBinding{
		client:      client,
		key:         pk,
		icert:       icert,
		certifiedAs: certifiedAs,
	}, nil
}

// refreshPolicy returns the policy whose attempt count bounds a fetch's
// re-binds: the configured one, or a two-attempt default.
func (c *Client) refreshPolicy() *transport.RetryPolicy {
	if c.retry != nil {
		return c.retry
	}
	return &transport.RetryPolicy{MaxAttempts: 2}
}

func (c *Client) cachedBinding(oid globeid.OID, now time.Time) (*verifiedBinding, bool) {
	if !c.cacheBindings {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupBindingLocked(oid)
}

// lookupBindingLocked returns the cached binding for oid, promoting it
// to most-recently-used. Caller holds c.mu.
func (c *Client) lookupBindingLocked(oid globeid.OID) (*verifiedBinding, bool) {
	node, ok := c.cache[oid]
	if !ok {
		return nil, false
	}
	c.bindingLRU.MoveToFront(node)
	return node.Value.(*bindingEntry).vb, true
}

// storeBindingLocked parks a freshly verified binding, replacing any
// previous one for the same OID (closing its connection) and evicting
// least-recently-used bindings beyond the cache bound. A refreshed
// certificate also reconciles the verified-content cache: entries whose
// hash the new certificate no longer lists stop being servable the
// moment the new version is verified. Caller holds c.mu.
func (c *Client) storeBindingLocked(oid globeid.OID, vb *verifiedBinding) {
	if node, ok := c.cache[oid]; ok {
		old := node.Value.(*bindingEntry)
		if old.vb != vb {
			old.vb.client.Close()
			old.vb = vb
		}
		c.bindingLRU.MoveToFront(node)
	} else {
		c.cache[oid] = c.bindingLRU.PushFront(&bindingEntry{oid: oid, vb: vb})
		for len(c.cache) > c.maxBindings {
			tail := c.bindingLRU.Back()
			if tail == nil {
				break
			}
			evicted := tail.Value.(*bindingEntry)
			c.bindingLRU.Remove(tail)
			delete(c.cache, evicted.oid)
			evicted.vb.client.Close()
		}
	}
	c.tel().BindingCacheEntries.Set(int64(len(c.cache)))
	if c.vcache != nil {
		listed := make(map[[globeid.Size]byte]bool, len(vb.icert.Entries))
		for _, e := range vb.icert.Entries {
			listed[e.Hash] = true
		}
		c.vcache.Reconcile(oid, listed)
	}
}

func (c *Client) storeBinding(oid globeid.OID, vb *verifiedBinding) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeBindingLocked(oid, vb)
}

func (c *Client) dropBinding(oid globeid.OID, vb *verifiedBinding) {
	c.mu.Lock()
	if node, ok := c.cache[oid]; ok && node.Value.(*bindingEntry).vb == vb {
		c.bindingLRU.Remove(node)
		delete(c.cache, oid)
		c.tel().BindingCacheEntries.Set(int64(len(c.cache)))
	}
	c.mu.Unlock()
	vb.client.Close()
}

// invalidateContent drops every verified-content cache entry vouched for
// under oid. Called whenever a replica interaction for oid fails a
// security check or fails over: bytes whose provenance is now suspect
// must be re-fetched and re-verified, never served from cache.
func (c *Client) invalidateContent(oid globeid.OID) {
	if c.vcache != nil {
		c.vcache.InvalidateOID(oid)
	}
}

// ElementsNamed resolves name and returns the verified integrity
// certificate's entries — the authenticated table of contents of the
// object. No element content is transferred.
func (c *Client) ElementsNamed(ctx context.Context, name string) ([]cert.ElementEntry, error) {
	ctx = orBackground(ctx)
	oid, err := c.Binder.Names.Resolve(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("core: resolving %q: %w", name, err)
	}
	return c.Elements(ctx, oid)
}

// Elements returns the verified certificate entries for oid.
func (c *Client) Elements(ctx context.Context, oid globeid.OID) ([]cert.ElementEntry, error) {
	ctx = orBackground(ctx)
	ctx, p := c.newPipeline(ctx, SpanElements)
	p.root.Annotate("oid", oid.Short())
	entries, err := c.elements(ctx, p, oid)
	if err != nil {
		p.finish("error")
		return nil, err
	}
	p.finish("ok")
	return entries, nil
}

func (c *Client) elements(ctx context.Context, p *pipeline, oid globeid.OID) ([]cert.ElementEntry, error) {
	now := c.now()
	vb, warm := c.cachedBinding(oid, now)
	if !warm {
		var shared bool
		var err error
		vb, shared, err = c.establishBinding(ctx, p, oid, now, nil)
		if err != nil {
			return nil, err
		}
		if !shared && !c.cacheBindings {
			defer vb.client.Close()
		}
	}
	return append([]cert.ElementEntry(nil), vb.icert.Entries...), nil
}

// FetchAll securely fetches every element listed in the object's
// integrity certificate, returning elements in certificate order. It is
// the "download the whole document" operation the paper's Figures 5–7
// time against Apache. Elements are retrieved by a bounded worker pool
// (Options.FetchWorkers); on the first failure remaining work is
// cancelled and the ordered prefix of verified elements is returned
// alongside the error.
func (c *Client) FetchAll(ctx context.Context, oid globeid.OID) ([]FetchResult, error) {
	ctx = orBackground(ctx)
	ctx, p := c.newPipeline(ctx, SpanFetchAll)
	p.root.Annotate("oid", oid.Short())
	out, err := c.fetchAll(ctx, p, oid)
	if err != nil {
		p.finish("error")
		return out, err
	}
	p.finish("ok")
	return out, nil
}

func (c *Client) fetchAll(ctx context.Context, p *pipeline, oid globeid.OID) ([]FetchResult, error) {
	// Bind once (cold, shared or cached), then fan element fetches out
	// over a bounded worker pool sharing the verified binding. Each
	// element runs its own fresh pipeline under the fetch.all root span,
	// so per-element spans and Timing stay attributable. There is no
	// per-element re-bind or failover here: the first failure ends the
	// operation.
	now := c.now()
	var b bound
	b.vb, b.warm = c.cachedBinding(oid, now)
	if !b.warm {
		vb, shared, err := c.establishBinding(ctx, p, oid, now, nil)
		if err != nil {
			return nil, err
		}
		b.vb, b.shared = vb, shared
	}
	if !b.warm && !b.shared && !c.cacheBindings {
		defer b.vb.client.Close()
	}
	entries := b.vb.icert.Entries
	if len(entries) == 0 {
		return nil, nil
	}

	// One pipelined GetElements exchange prefetches every element the
	// verified-content cache cannot already serve; workers then verify
	// from the prefetched bytes and fall back to individual fetches for
	// anything the batch could not carry.
	batch := c.batchPrefetch(ctx, p, b.vb, entries, now)

	workers := c.fetchWorkers
	if workers > len(entries) {
		workers = len(entries)
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type slot struct {
		res  FetchResult
		err  error
		done bool
	}
	out := make([]slot, len(entries))
	var next atomic.Int64
	var failOnce sync.Once
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(entries) || gctx.Err() != nil {
					return
				}
				res, err := c.fetchElement(gctx, p.fresh(), b, entries[i].Name, now, batch)
				out[i] = slot{res: res, err: err, done: true}
				if err != nil {
					failOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
			}
		}()
	}
	wg.Wait()

	results := make([]FetchResult, 0, len(entries))
	for i := range out {
		if !out[i].done || out[i].err != nil {
			break
		}
		results = append(results, out[i].res)
	}
	if firstErr != nil {
		// Whatever failed — dead replica or failed check — the binding
		// is suspect: neither keep it cached, nor leak its connection,
		// nor serve content it vouched for from the cache.
		c.dropBinding(oid, b.vb)
		c.invalidateContent(oid)
		var sec *SecurityError
		if errors.As(firstErr, &sec) {
			p.tel.SecurityCheckFailures.With(sec.Phase).Inc()
		}
		return results, firstErr
	}
	return results, nil
}

// prefetch is FetchAll's batched GetElements result: the still
// unverified bytes it carried, by element name, and each element's
// amortized share of the exchange's duration.
type prefetch struct {
	elems map[string]document.Element
	share time.Duration
}

// batchPrefetch retrieves the elements the verified-content cache cannot
// serve in one GetElements exchange over the shared binding. Every
// failure mode — a transport fault or per-item declines — degrades to an
// empty or partial prefetch; the workers' individual fetches then carry
// their own error handling, so batching never changes failure
// semantics, only round trips. The prefetched bytes are NOT trusted:
// each element still runs the full verification steps with the same
// phase attribution as a serial fetch.
func (c *Client) batchPrefetch(ctx context.Context, p *pipeline, vb *verifiedBinding, entries []cert.ElementEntry, now time.Time) prefetch {
	if c.noBatchFetch || len(entries) < 2 {
		return prefetch{}
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if c.vcache != nil && e.CheckFreshness(now) == nil && c.vcache.Contains(e.Hash) {
			continue // the per-element vcache consult will serve it
		}
		names = append(names, e.Name)
	}
	if len(names) < 2 {
		return prefetch{}
	}
	sp := p.root.StartChild(StepBatchFetch)
	sp.Annotate("elements", strconv.Itoa(len(names)))
	items, err := vb.client.GetElements(ctx, names)
	if err != nil {
		sp.Annotate("error", err.Error())
		sp.End()
		return prefetch{}
	}
	sp.End()
	got := make(map[string]document.Element, len(items))
	for _, it := range items {
		if it.Err == nil {
			got[it.Name] = it.Element
		}
	}
	c.tel().BatchFetches.Inc()
	c.tel().BatchElements.Add(uint64(len(got)))
	if len(got) == 0 {
		return prefetch{}
	}
	return prefetch{elems: got, share: sp.Duration() / time.Duration(len(got))}
}
