package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/server"
	"globedoc/internal/workload"
)

// update: writes beside reads at paper latency. A 64 x 4 KB document is
// replicated on the Amsterdam primary and a Paris secondary, 20 ms apart.
// The owner replays versions pre-signed before set-up, one changed
// element each, open loop at 10 versions/s: server.Update on the
// primary, then the secondary's Puller.CheckOnce, which takes the delta
// path over the wide-area link. One closed-loop reader GETs
// uniform-random elements through a Paris proxy, calling its ServeHTTP
// in process.
// Certificates are valid for a short, overlapping interval on a clock the
// benchmark controls and shares between owner and clients, which
// advances with the versions, so readers revalidate as versions advance.
// This moves update validation, the version chain, delta encode/pull, the
// signature memo and revalidation, and uses server and vcache differently
// from browse: a read-path gain that costs writes, or the reverse, shows
// here. The round trips of the pull set how long a version takes to
// become visible, so that latency holds steady on a busy host, where
// CPU-bound millisecond latencies do not.
const (
	updateElements  = 64
	updateElemSize  = 4 * workload.KB
	updateTimeScale = 1.0
	updateRate      = 10 // versions per second
	updateStep      = time.Second / updateRate
	// updateTTL is each version's validity on the benchmark clock after
	// its issue time (and, backdated, before it): twenty versions, so a
	// reader's certificate lapses after twenty newer ones have been
	// installed. A reader holding a certificate fetches an
	// element the replica has since rewritten (an authenticity failure)
	// only if it has not read that element during the 44 versions between
	// its last two changes, which a closed-loop reader making thousands of
	// reads per version does not do.
	updateTTL    = 20 * updateStep
	updateName   = "update.bench"
	updateOwner  = "owner:" + updateName
	updateClient = netsim.Paris
	updateWarmup = 500 // reads before timing
	updateKey    = fixtureKeys - 2
)

// updateEpoch is the benchmark clock's start: the genesis version is
// issued then, version i at updateEpoch + i*updateStep.
var updateEpoch = time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)

// benchClock is the time owner and clients share in the update workload.
// It reads the issue time of the newest version the owner has started to
// install, so certificates age by versions, not by wall time: a writer
// that falls behind schedule delays its versions' visibility but never
// leaves a replica holding only expired certificates.
type benchClock struct{ ns atomic.Int64 }

func newBenchClock(t time.Time) *benchClock {
	c := &benchClock{}
	c.set(t)
	return c
}

func (c *benchClock) now() time.Time  { return time.Unix(0, c.ns.Load()).UTC() }
func (c *benchClock) set(t time.Time) { c.ns.Store(t.UnixNano()) }

type updateInputs struct {
	genesis *server.Bundle
	chain   *updateChain
}

// updateCorpus builds the document and pre-signs enough versions for
// seconds of writing at updateRate.
func updateCorpus(cfg runConfig, seconds int) (*updateInputs, error) {
	doc := workload.WideDoc(updateElements, updateElemSize, streamSeed(cfg.seed, 300))
	owner := cfg.owners[updateKey]
	oid := globeid.FromPublicKey(owner.Public())
	icert, err := document.IssueCertificate(doc, oid, owner, updateEpoch, document.UniformTTL(updateTTL))
	if err != nil {
		return nil, err
	}
	genesis := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	chain, err := buildChain(genesis, owner, updateEpoch, updateStep, updateTTL, seconds*updateRate+updateRate, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &updateInputs{genesis: genesis, chain: chain}, nil
}

type updateEnv struct {
	cfg       runConfig
	in        *updateInputs
	clock     *benchClock
	tb        *testbed
	primary   *server.Server
	secondary *server.Server
	puller    *server.Puller
	sc        *secureClient
	proxy     *proxy.Proxy
	taps      *taps
	bad       mismatches
	reqs      []*http.Request
	names     []string

	cur     *chainCursor // the next chain version to apply
	applied *server.Bundle

	w            writerStats // the current phase's versions
	onWarm, seen atomic.Int64
}

func setupUpdate(cfg runConfig, in *updateInputs, t *taps) (env, error) {
	clock := newBenchClock(updateEpoch)
	tb, err := newTestbed(updateTimeScale, clock.now)
	if err != nil {
		return nil, err
	}
	e := &updateEnv{cfg: cfg, in: in, clock: clock, tb: tb, taps: t, applied: in.genesis, cur: in.chain.cursor()}
	fail := func(err error) (env, error) {
		e.close()
		return nil, err
	}
	if e.primary, err = tb.w.StartServer(primarySite, "srv-ams", nil, nil, serverLimits); err != nil {
		return fail(err)
	}
	if e.secondary, err = tb.w.StartServer(updateClient, "srv-paris", nil, nil, serverLimits); err != nil {
		return fail(err)
	}
	for _, srv := range []*server.Server{e.primary, e.secondary} {
		if err := srv.Install(in.genesis, updateOwner); err != nil {
			return fail(err)
		}
	}
	if err := tb.w.NamingAuthority.Register(updateName, in.genesis.OID); err != nil {
		return fail(err)
	}
	for _, site := range []string{primarySite, updateClient} {
		if err := tb.w.LocationTree.Insert(site, in.genesis.OID, contactAddress(tb.w, site)); err != nil {
			return fail(err)
		}
	}
	e.puller = server.NewPuller(e.secondary, in.genesis.OID, updateOwner,
		tb.w.Addrs[primarySite], tb.w.DialFrom(updateClient), time.Hour)
	e.puller.SetTelemetry(tb.tel)
	if e.sc, err = tb.newSecure(updateClient, 0, t); err != nil {
		return fail(err)
	}
	e.proxy = tb.newProxy(e.sc)
	for _, el := range in.genesis.Elements {
		e.names = append(e.names, el.Name)
		e.reqs = append(e.reqs, httptest.NewRequest(http.MethodGet, proxy.HybridURL(updateName, el.Name), nil))
	}
	return e, nil
}

func (e *updateEnv) warm() error {
	if err := e.read(nil, updateWarmup, 1000); err != nil {
		return fmt.Errorf("update warm-up: %w", err)
	}
	return nil
}

func (e *updateEnv) close() {
	if e.sc != nil {
		e.sc.close()
	}
	if e.puller != nil {
		e.puller.Stop()
	}
	e.tb.close()
}

func (e *updateEnv) run(m *meter, phase int) {
	e.w = writerStats{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.write(m)
	}()
	go func() {
		defer wg.Done()
		_ = e.read(m, 0, phase) // failures are counted by the meter
	}()
	wg.Wait()
}

// write replays chain versions, one due every updateStep from the phase
// start, until the phase ends. Each is timed from its due time to its
// installation on the secondary, so a stalled writer shows in the latency
// of every version behind it.
func (e *updateEnv) write(m *meter) {
	ctx := context.Background()
	for k := 1; !e.cur.done(); k++ {
		due := m.start.Add(time.Duration(k) * updateStep)
		if !due.Before(m.end) {
			return
		}
		time.Sleep(time.Until(due))
		e.clock.set(e.cur.dueAt())
		b := e.cur.next()
		updated, err := e.w.apply(ctx, due, b, e.primary, e.puller, updateOwner)
		if updated {
			e.applied = b
		}
		m.write(time.Since(due), err)
	}
}

// read is the closed-loop reader: until m's phase ends, or count reads
// when m is nil. It calls the proxy's ServeHTTP in process, so the cost
// of a read is the proxy and the secure client's, not loopback TCP's.
// Any body must be a version of that element the owner published whose
// certificate was still valid, on the benchmark clock, when the read
// began.
func (e *updateEnv) read(m *meter, count, stream int) error {
	rw := newMemResponse()
	s := newUniformStream(e.cfg.seed, stream, len(e.reqs))
	for n := 0; m == nil && n < count || m != nil && m.running(); n++ {
		i := s.next()
		rw.reset()
		clockStart := e.clock.now()
		start := time.Now()
		e.proxy.ServeHTTP(rw, e.reqs[i])
		lat := time.Since(start)
		var err error
		body := rw.body.Bytes()
		if rw.status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", rw.status, failureReason(body))
		} else if !e.in.chain.fresh(e.names[i], body, clockStart, e.clock.now()) {
			err = fmt.Errorf("%w: %s is no version current within its validity at version %d",
				errMismatch, e.names[i], e.in.chain.position(clockStart))
			e.bad.add(err)
		}
		if m == nil {
			if err != nil {
				return err
			}
			continue
		}
		m.read(lat, err)
		if err == nil && e.taps != nil && e.taps.on.Load() {
			countWarm(&e.onWarm, &e.seen, rw.h)
		}
	}
	return nil
}

// check compares both replicas with the last version the owner applied.
func (e *updateEnv) check() (int, error) {
	want := e.applied.Marshal()
	for site, srv := range map[string]*server.Server{primarySite: e.primary, updateClient: e.secondary} {
		got, err := srv.ExportBundle(e.in.genesis.OID)
		if err != nil {
			e.bad.add(fmt.Errorf("exporting the replica at %s: %w", site, err))
			continue
		}
		if !bytes.Equal(got.Marshal(), want) {
			e.bad.add(fmt.Errorf("%w: the replica at %s is not version %d", errMismatch, site, e.applied.Version))
		}
	}
	return e.bad.count()
}

func (e *updateEnv) traced(l *layers, b phaseStats) {
	l.set("core.warm_ratio", ratio(e.onWarm.Load(), e.seen.Load()), "ratio")
	l.writer(&e.w)
}

func (e *updateEnv) labInputs() labInputs {
	doc := document.New()
	doc.Replace(e.in.genesis.Elements, e.in.genesis.Version)
	return labInputs{
		names:      []string{updateName},
		docs:       []*document.Document{doc},
		owners:     e.cfg.owners[updateKey : updateKey+1],
		client:     updateClient,
		coldTiming: true,
		noProbe:    true,
	}
}

func contactAddress(w *deploy.World, site string) location.ContactAddress {
	return location.ContactAddress{Address: w.Addrs[site], Protocol: object.Protocol}
}
