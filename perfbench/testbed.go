package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/naming"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// fixtureKeys is how many RSA-2048 owner keys testdata/ holds: one per
// browse document plus the update document and the isolated-timing probe.
const fixtureKeys = 32

func fixtureKeyPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("owner-%02d.key", i))
}

// loadOwnerKeys reads the first n fixture owner keys. Generating RSA-2048
// keys costs about 0.3 s each and dominated set-up time; the keys are
// benchmark-only and never protect anything.
func loadOwnerKeys(dir string, n int) ([]*keys.KeyPair, error) {
	out := make([]*keys.KeyPair, n)
	for i := range out {
		kp, err := keyfile.LoadKeyPair(fixtureKeyPath(dir, i))
		if err != nil {
			return nil, fmt.Errorf("loading owner key fixture: %w", err)
		}
		if kp.Algorithm() != keys.RSA2048 {
			return nil, fmt.Errorf("owner key fixture %d is %v, want %v", i, kp.Algorithm(), keys.RSA2048)
		}
		out[i] = kp
	}
	return out, nil
}

// writeOwnerKeys regenerates the fixture (the -gen-keys mode).
func writeOwnerKeys(dir string) error {
	for i := 0; i < fixtureKeys; i++ {
		kp, err := keys.Generate(keys.RSA2048)
		if err != nil {
			return err
		}
		if err := keyfile.SaveKeyPair(fixtureKeyPath(dir, i), kp); err != nil {
			return err
		}
	}
	return nil
}

// shipped holds the client settings the globedoc-proxy binary runs with
// when given no flags, taken from the same flag bundles it registers.
type shipped struct {
	transport transport.Config
	cache     *deploy.CacheFlags
	fetchTO   time.Duration
}

func shippedDefaults(tel *telemetry.Telemetry) shipped {
	fs := flag.NewFlagSet("defaults", flag.ContinueOnError)
	clientFl := deploy.RegisterClientFlags(fs)
	cacheFl := deploy.RegisterCacheFlags(fs)
	debugFl := deploy.RegisterDebugFlags(fs)
	tel.Tracer.SetSampleRate(debugFl.TraceSample)
	return shipped{transport: clientFl.Config(tel), cache: cacheFl, fetchTO: 30 * time.Second}
}

// testbed is one in-process deployment plus the client-side settings the
// workload's proxies use.
type testbed struct {
	w        *deploy.World
	tel      *telemetry.Telemetry
	defaults shipped
	// clock, when set, is the benchmark-controlled clock shared by the
	// owner and every client (the update workload).
	clock func() time.Time
}

func newTestbed(timeScale float64, clock func() time.Time) (*testbed, error) {
	tel := telemetry.New(nil)
	d := shippedDefaults(tel)
	w, err := deploy.NewWorld(deploy.Options{
		TimeScale: timeScale,
		Client:    d.transport,
		Telemetry: tel,
		Clock:     clock,
	})
	if err != nil {
		return nil, err
	}
	return &testbed{w: w, tel: tel, defaults: d, clock: clock}, nil
}

func (tb *testbed) close() { tb.w.Close() }

// secureClient is a core.Client plus the naming/location clients its
// binder owns.
type secureClient struct {
	*core.Client
	names *naming.Resolver
	loc   *location.Client
}

func (s *secureClient) close() {
	s.Client.Close()
	s.names.Close()
	s.loc.Close()
}

// newSecure builds the proxy binary's secure client for a user at host:
// bindings cached, the verified-content cache on (vcacheBytes 0 keeps
// the default budget, negative disables it), trust in the world CA.
// taps, when non-nil, decorates the binder's name resolver, location
// resolver and dialer so a traced run can time and count each layer.
func (tb *testbed) newSecure(host string, vcacheBytes int64, taps *taps) (*secureClient, error) {
	cfg := tb.defaults.transport
	dial := func(addr string) transport.DialFunc { return tb.w.Net.Dialer(host, addr) }
	if taps != nil {
		dial = taps.dialTo(tb.w.Net, host)
	}
	names := naming.NewResolver(dial(tb.w.NamingAddr), tb.w.NamingAuthority.RootKey()).Configure(cfg)
	if tb.clock != nil {
		// deploy.Options.Clock reaches the naming authority but not the
		// resolvers a world builds, so records signed on the benchmark
		// clock would look expired to a resolver on the wall clock.
		names.Now = tb.clock
	}
	loc := location.NewClient(dial(tb.w.LocationAddr)).Configure(cfg)
	binder := &object.Binder{
		Names:     names,
		Locator:   loc,
		Dial:      dial,
		Site:      host,
		Transport: cfg,
	}
	if taps != nil {
		binder.Names = tappedResolver{names, taps}
		binder.Locator = tappedLocator{loc, taps}
	}
	trust := cert.NewTrustStore()
	trust.TrustCA(tb.w.CA.Name, tb.w.CA.Key.Public())
	opts := core.Options{
		Retry:         cfg.Retry,
		CacheBindings: true,
		Telemetry:     tb.tel,
		Trust:         trust,
		Now:           tb.clock,
	}
	cacheFl := *tb.defaults.cache
	cacheFl.VCacheMaxBytes = vcacheBytes
	cacheFl.DisableVCache = vcacheBytes < 0
	cacheFl.Apply(&opts)
	c, err := core.NewClient(binder, opts)
	if err != nil {
		names.Close()
		loc.Close()
		return nil, err
	}
	return &secureClient{Client: c, names: names, loc: loc}, nil
}

// newProxy wraps a secure client in the proxy with the binary's settings.
func (tb *testbed) newProxy(sc *secureClient) *proxy.Proxy {
	p := proxy.New(sc.Client)
	p.FetchTimeout = tb.defaults.fetchTO
	p.Telemetry = tb.tel
	return p
}

// publishSet publishes docs under the given names with the fixture owner
// keys, certified by the world CA, on the Amsterdam primary.
func (tb *testbed) publishSet(names []string, docs []*document.Document, owners []*keys.KeyPair, ttl time.Duration, now time.Time) ([]*deploy.Publication, error) {
	if _, ok := tb.w.Servers[primarySite]; !ok {
		if _, err := tb.w.StartServer(primarySite, "srv-ams", nil, nil, serverLimits); err != nil {
			return nil, err
		}
	}
	pubs := make([]*deploy.Publication, len(docs))
	for i, doc := range docs {
		pub, err := tb.w.Publish(doc, deploy.PublishOptions{
			Name:     names[i],
			Subject:  "Owner of " + names[i],
			TTL:      ttl,
			OwnerKey: owners[i],
			Clock:    func() time.Time { return now },
		})
		if err != nil {
			return nil, err
		}
		pubs[i] = pub
	}
	return pubs, nil
}

// --- loopback HTTP -----------------------------------------------------------

// httpFront serves a proxy on a loopback TCP listener, as a browser
// would reach it.
type httpFront struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpFront, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{srv: &http.Server{Handler: h}, base: "http://" + l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(l) // returns http.ErrServerClosed after close
	}()
	return f, nil
}

func (f *httpFront) close() {
	_ = f.srv.Close() // closing an idle loopback server cannot fail usefully
	<-f.done
}

// browser is one keep-alive HTTP connection to the proxy, used by one
// closed-loop load goroutine.
type browser struct {
	client *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
}

func newBrowser() *browser {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &browser{client: &http.Client{Transport: tr}, tr: tr}
}

func (b *browser) close() { b.tr.CloseIdleConnections() }

// get fetches url and returns the body (valid until the next get) and
// the response headers.
func (b *browser) get(ctx context.Context, url string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b.buf.Reset()
	if _, err := b.buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, failureReason(b.buf.Bytes()))
	}
	return b.buf.Bytes(), resp.Header, nil
}

// failureReason extracts the reason line from the proxy's failure page.
func failureReason(page []byte) string {
	const marker = "<b>Reason:</b> "
	if i := bytes.Index(page, []byte(marker)); i >= 0 {
		page = page[i+len(marker):]
		if j := bytes.Index(page, []byte("</p>")); j >= 0 {
			page = page[:j]
		}
	}
	if len(page) > 300 {
		page = page[:300]
	}
	return string(page)
}

// errMismatch marks a response whose bytes differ from what was published.
var errMismatch = errors.New("response body differs from the published element")

// checkBody compares a response with the published bytes.
func checkBody(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w (%d bytes, want %d)", errMismatch, len(got), len(want))
	}
	return nil
}

// mismatches counts byte mismatches across a run: any makes the run
// incorrect.
type mismatches struct {
	mu    sync.Mutex
	n     int
	first error
}

func (m *mismatches) add(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.n++
	if m.first == nil {
		m.first = err
	}
}

func (m *mismatches) count() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n, m.first
}

// memResponse is an http.ResponseWriter for in-process ServeHTTP calls:
// it keeps the status, headers and body in buffers reused across calls.
type memResponse struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func newMemResponse() *memResponse { return &memResponse{h: make(http.Header)} }

func (r *memResponse) Header() http.Header { return r.h }
func (r *memResponse) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *memResponse) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *memResponse) reset() {
	clear(r.h)
	r.status = 0
	r.body.Reset()
}

// vcacheOff passes to newSecure to disable the verified-content cache.
const vcacheOff = -1
