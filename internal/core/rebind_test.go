package core_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// TestWarmBindingRebindsOnCorruptedElement: the replica behind a warm
// binding corrupts one element response. The bytes fail authenticity, so
// the fetch drops the binding, re-binds and returns the verified bytes
// instead of failing — corruption on the wire costs a round trip, not
// the fetch. A relay in front of the genuine replica does the corrupting.
func TestWarmBindingRebindsOnCorruptedElement(t *testing.T) {
	w, pub, _ := world(t, netsim.Paris)

	// While armed, the relay flips the last byte of the next
	// obj.getelement response — the element's content — and disarms.
	var armed atomic.Bool
	binder := relayedBinder(t, w, func(op string, resp []byte) []byte {
		if op == object.OpGetElement && armed.CompareAndSwap(true, false) {
			resp = bytes.Clone(resp)
			resp[len(resp)-1] ^= 0xFF
		}
		return resp
	})
	tel := telemetry.New(nil)
	client, err := core.NewClient(binder, core.Options{CacheBindings: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	ctx := context.Background()
	if _, err := client.Fetch(ctx, pub.OID, "index.html"); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	res, err := client.Fetch(ctx, pub.OID, "logo.png")
	if err != nil {
		t.Fatalf("warm fetch with one corrupted response: %v", err)
	}
	if armed.Load() {
		t.Fatal("the relay never corrupted a response")
	}
	if !bytes.Equal(res.Element.Data, []byte{0x89, 0x50, 0x4e, 0x47}) {
		t.Fatalf("Data = %x, want the published bytes", res.Element.Data)
	}
	if res.WarmBinding {
		t.Error("result reports the warm binding the corruption discredited")
	}
	if got := tel.Failovers.Value(); got != 1 {
		t.Errorf("failovers_total = %d, want 1", got)
	}
	if got := tel.SecurityCheckFailures.Total(); got != 0 {
		t.Errorf("security_check_failures_total = %d for a recovered fetch, want 0", got)
	}
}

// relayedBinder returns a binder for a Paris client that reaches the
// Amsterdam replica only through a relay, which passes every successful
// reply through edit before returning it.
func relayedBinder(t *testing.T, w *deploy.World, edit func(op string, resp []byte) []byte) *object.Binder {
	t.Helper()
	target := w.Addrs[netsim.AmsterdamPrimary]
	upstream := transport.NewClient(w.DialFrom(netsim.AmsterdamPrimary)(target))
	t.Cleanup(upstream.Close)
	relay := transport.NewServer()
	for _, op := range []string{object.OpGetKey, object.OpGetCert, object.OpGetNameCerts, object.OpGetElement,
		object.OpGetElements, object.OpListElements, object.OpVersion, object.OpPing} {
		relay.HandleCtx(op, func(ctx context.Context, body []byte) ([]byte, error) {
			resp, err := upstream.Call(ctx, op, body)
			if err != nil {
				return nil, err
			}
			return edit(op, resp), nil
		})
	}
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "relay")
	if err != nil {
		t.Fatal(err)
	}
	relay.Start(l)
	t.Cleanup(relay.Close)

	binder := w.NewBinder(netsim.Paris)
	dial := binder.Dial
	binder.Dial = func(addr string) transport.DialFunc {
		if addr == target {
			return dial(netsim.AmsterdamPrimary + ":relay")
		}
		return dial(addr)
	}
	return binder
}

// TestCertificateArrivingMidFetchIsCheckedAtArrival: the object's
// certificate becomes valid a minute after the fetch starts, and the
// clock passes that instant while the certificate is in flight. The
// honest certificate must be judged by the clock after it arrived, not
// by the reading taken before binding — which would reject it as "not
// valid before" and drop the content.
func TestCertificateArrivingMidFetchIsCheckedAtArrival(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: []byte("just in time")})
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:     "soon.nl",
		OwnerKey: keytest.RSA(),
		Clock:    func() time.Time { return start.Add(time.Minute) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each operation binds cold on its own clock, starting at start.
	var fake atomic.Pointer[clock.Fake]
	binder := relayedBinder(t, w, func(op string, resp []byte) []byte {
		if op == object.OpGetCert {
			fake.Load().Advance(2 * time.Minute)
		}
		return resp
	})
	for _, tc := range []struct {
		name string
		op   func(*core.Client) ([]core.FetchResult, error)
	}{
		{"Fetch", func(c *core.Client) ([]core.FetchResult, error) {
			res, err := c.Fetch(context.Background(), pub.OID, "index.html")
			return []core.FetchResult{res}, err
		}},
		{"FetchAll", func(c *core.Client) ([]core.FetchResult, error) {
			return c.FetchAll(context.Background(), pub.OID)
		}},
	} {
		name, op := tc.name, tc.op
		t.Run(name, func(t *testing.T) {
			f := clock.NewFake(start)
			fake.Store(f)
			client, err := core.NewClient(binder, core.Options{Now: f.Now})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			res, err := op(client)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res) != 1 || string(res[0].Element.Data) != "just in time" {
				t.Fatalf("%s returned %d results, want the published element", name, len(res))
			}
		})
	}
}
