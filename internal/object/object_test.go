package object_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
)

func TestOIDRequestRoundTrip(t *testing.T) {
	oid := binderTestOID(keytest.Ed())
	got, err := object.DecodeOIDRequest(object.EncodeOIDRequest(oid))
	if err != nil {
		t.Fatalf("DecodeOIDRequest: %v", err)
	}
	if got != oid {
		t.Fatal("OID corrupted")
	}
	if _, err := object.DecodeOIDRequest([]byte{1, 2}); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := object.DecodeOIDRequest(append(object.EncodeOIDRequest(oid), 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestElementRequestRoundTrip(t *testing.T) {
	oid := binderTestOID(keytest.Ed())
	body := object.EncodeElementRequest(oid, "img/logo.png", "paris")
	gotOID, name, site, err := object.DecodeElementRequest(body)
	if err != nil {
		t.Fatalf("DecodeElementRequest: %v", err)
	}
	if gotOID != oid || name != "img/logo.png" || site != "paris" {
		t.Fatalf("decoded %v %q %q", gotOID, name, site)
	}
	if _, _, _, err := object.DecodeElementRequest(nil); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestElementRoundTrip(t *testing.T) {
	e := document.Element{Name: "a.html", ContentType: "text/html", Data: []byte("body")}
	got, err := object.DecodeElement(object.EncodeElement(e))
	if err != nil {
		t.Fatalf("DecodeElement: %v", err)
	}
	if got.Name != e.Name || got.ContentType != e.ContentType || !bytes.Equal(got.Data, e.Data) {
		t.Fatalf("got %+v", got)
	}
	if _, err := object.DecodeElement([]byte{0x03}); err == nil {
		t.Fatal("garbage element accepted")
	}
}

func TestStringListRoundTrip(t *testing.T) {
	f := func(names []string) bool {
		got, err := object.DecodeStringList(object.EncodeStringList(names))
		if err != nil {
			return false
		}
		if len(got) != len(names) {
			return false
		}
		for i := range names {
			if got[i] != names[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := object.DecodeStringList([]byte{0xff, 0xff, 0xff, 0xff, 0x01}); err == nil {
		t.Fatal("implausible list length accepted")
	}
}

func TestCertListRoundTrip(t *testing.T) {
	ca := &cert.CA{Name: "CA", Key: keytest.Ed()}
	oid := binderTestOID(keytest.RSA())
	t0 := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	nc, err := ca.IssueNameCertificate(oid, "Subject", t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	got, err := object.DecodeCertList(object.EncodeCertList([]*cert.NameCertificate{nc}))
	if err != nil {
		t.Fatalf("DecodeCertList: %v", err)
	}
	if len(got) != 1 || got[0].Subject != "Subject" {
		t.Fatalf("got %+v", got)
	}
	if empty, err := object.DecodeCertList(object.EncodeCertList(nil)); err != nil || len(empty) != 0 {
		t.Fatalf("empty list: %v %v", empty, err)
	}
	if _, err := object.DecodeCertList([]byte{0x01, 0x05, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("garbage cert list accepted")
	}
}

// clientFixture serves one real document and returns a connected Client.
func clientFixture(t *testing.T) (*object.Client, globeid.OID) {
	t.Helper()
	return serveElement(t, []byte("served"))
}

// serveElement serves a document whose index.html holds data from an
// in-process object server over netsim at zero latency, and returns a
// Client connected to it.
func serveElement(t testing.TB, data []byte) (*object.Client, globeid.OID) {
	t.Helper()
	owner := keytest.Ed()
	oid := binderTestOID(owner)
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: data})
	t0 := time.Now()
	icert, err := document.IssueCertificate(doc, oid, owner, t0, document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	bundle := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)

	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	srv := server.New("srv", netsim.AmsterdamPrimary, nil, nil, server.Limits{})
	if err := srv.Install(bundle, "owner"); err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen(netsim.AmsterdamPrimary, "objsvc")
	if err != nil {
		t.Fatal(err)
	}
	srv.Start(l)
	t.Cleanup(srv.Close)

	c := object.NewClient(oid, netsim.AmsterdamPrimary+":objsvc",
		n.Dialer(netsim.Paris, netsim.AmsterdamPrimary+":objsvc"))
	t.Cleanup(c.Close)
	return c, oid
}

// BenchmarkGetElementRoundTrip64K measures one GetElement round trip of
// a 64 KB element, counting the server's allocations as well as the
// client's.
func BenchmarkGetElementRoundTrip64K(b *testing.B) {
	data := bytes.Repeat([]byte{0x5a}, 64<<10)
	c, _ := serveElement(b, data)
	ctx := context.Background()
	if e, err := c.GetElement(ctx, "index.html"); err != nil || !bytes.Equal(e.Data, data) {
		b.Fatalf("GetElement = %d bytes, %v", len(e.Data), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := c.GetElement(ctx, "index.html")
		if err != nil {
			b.Fatal(err)
		}
		sinkElement = e
	}
}

var sinkElement document.Element

// TestGetElementAllocGate pins the data path's copy budget: a served
// element is copied into a pooled send buffer (no allocation) and
// received into one fresh frame buffer it is then decoded in place
// from, so a round trip allocates about the element's size once — 72 KB
// of whole pages for the 64 KB element's frame, plus ~2 KB of envelope,
// span and stream bookkeeping. An extra payload copy would double it.
//
// The gate runs at GOMAXPROCS 1 so it counts copies, not scheduling: a
// buffer Put back on another P's private slot is invisible to the next
// Get, and this tiny heap is collected every ~50 calls, each collection
// dropping idle pooled buffers, so with more Ps a varying few percent
// of calls refill a send buffer.
func TestGetElementAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs a benchmark")
	}
	if raceEnabled {
		t.Skip("allocation gate does not hold under -race")
	}
	const size = 64 << 10 // BenchmarkGetElementRoundTrip64K's element
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := testing.Benchmark(BenchmarkGetElementRoundTrip64K)
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got, limit := r.AllocedBytesPerOp(), int64(size*12/10); got > limit {
		t.Fatalf("GetElement of a %d-byte element allocates %d B/op, want <= %d (1.2x)", size, got, limit)
	}
}

func TestClientAccessors(t *testing.T) {
	c, oid := clientFixture(t)
	if c.OID() != oid {
		t.Error("OID mismatch")
	}
	if c.Addr() != netsim.AmsterdamPrimary+":objsvc" {
		t.Errorf("Addr = %q", c.Addr())
	}
	if c.Transport() == nil {
		t.Error("Transport nil")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	v, err := c.Version(context.Background())
	if err != nil || v == 0 {
		t.Fatalf("Version = %d, %v", v, err)
	}
	names, err := c.ListElements(context.Background())
	if err != nil || len(names) != 1 {
		t.Fatalf("ListElements = %v, %v", names, err)
	}
	e, err := c.GetElement(context.Background(), "index.html")
	if err != nil || string(e.Data) != "served" {
		t.Fatalf("GetElement = %q, %v", e.Data, err)
	}
	pk, err := c.GetPublicKey(context.Background())
	if err != nil {
		t.Fatalf("GetPublicKey: %v", err)
	}
	if err := oid.Verify(pk); err != nil {
		t.Fatalf("served key does not self-certify: %v", err)
	}
	ic, err := c.GetIntegrityCert(context.Background())
	if err != nil {
		t.Fatalf("GetIntegrityCert: %v", err)
	}
	if err := ic.VerifySignature(oid, pk); err != nil {
		t.Fatal(err)
	}
	ncs, err := c.GetNameCerts(context.Background())
	if err != nil || len(ncs) != 0 {
		t.Fatalf("GetNameCerts = %v, %v", ncs, err)
	}
}

func TestClientKeyVerifiesOnWire(t *testing.T) {
	// With no seed: verifies NewClient against nil server presence.
	n := netsim.PaperTestbed(0)
	defer n.Close()
	c := object.NewClient(binderTestOID(keytest.Ed()), "paris:absent",
		n.Dialer(netsim.Ithaca, "paris:absent"))
	defer c.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("Ping to absent service succeeded")
	}
}
