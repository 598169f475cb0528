package core_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"globedoc/internal/core"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
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
	target := w.Addrs[netsim.AmsterdamPrimary]

	// While armed, the relay flips the last byte of the next
	// obj.getelement response — the element's content — and disarms.
	var armed atomic.Bool
	upstream := transport.NewClient(w.DialFrom(netsim.AmsterdamPrimary)(target))
	t.Cleanup(upstream.Close)
	relay := transport.NewServer()
	for _, op := range []string{object.OpGetKey, object.OpGetCert, object.OpGetNameCerts, object.OpGetElement,
		object.OpGetElements, object.OpListElements, object.OpVersion, object.OpPing} {
		relay.HandleCtx(op, func(ctx context.Context, body []byte) ([]byte, error) {
			resp, err := upstream.Call(ctx, op, body)
			if err == nil && op == object.OpGetElement && armed.CompareAndSwap(true, false) {
				resp = bytes.Clone(resp)
				resp[len(resp)-1] ^= 0xFF
			}
			return resp, err
		})
	}
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "relay")
	if err != nil {
		t.Fatal(err)
	}
	relay.Start(l)
	t.Cleanup(relay.Close)

	// The client reaches the replica only through the relay.
	binder := w.NewBinder(netsim.Paris)
	dial := binder.Dial
	binder.Dial = func(addr string) transport.DialFunc {
		if addr == target {
			return dial(netsim.AmsterdamPrimary + ":relay")
		}
		return dial(addr)
	}
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
