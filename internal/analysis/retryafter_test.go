package analysis

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autocheck/internal/admission"
)

// TestClientHonorsComputedRetryAfter pins that the Client's retry
// backoff follows the admission-computed Retry-After on a 429 — a 7s
// hint yields exactly one 7s wait, not the local exponential schedule.
func TestClientHonorsComputedRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"code":"quota","message":"shed"}`))
			return
		}
		w.Write([]byte(`{"id":"x","state":"active"}`))
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.MaxElapsed = time.Hour
	var waits []time.Duration
	c.tr.SetClock(func(d time.Duration) { waits = append(waits, d) }, nil)
	if _, err := (&Session{ID: "x", c: c}).Status(); err != nil {
		t.Fatal(err)
	}
	if len(waits) != 1 || waits[0] != 7*time.Second {
		t.Fatalf("waits = %v, want exactly the server's computed hint [7s]", waits)
	}
}

// TestClientBudgetErrorWrapsEnvelope: when the transport gives up on its
// wall-clock budget, the error still wraps the decoded *Error —
// streamChunks reads its Code and Status to choose between resuming and
// failing.
func TestClientBudgetErrorWrapsEnvelope(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"code":"quota","message":"shed"}`))
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.MaxElapsed = 10 * time.Second
	c.tr.SetClock(func(time.Duration) { t.Error("slept past the budget") }, nil)
	_, err = (&Session{ID: "x", c: c}).Status()
	var ae *Error
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != CodeQuota {
		t.Fatalf("err = %v, want it to wrap the typed 429 envelope", err)
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Errorf("err = %v, want a budget-exhausted error", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("requests = %d, want 1 (the 30s hint overruns the 10s budget)", n)
	}
}

// TestClientPriorityHeaders pins the Client's admission headers: every
// request carries the tenant namespace, and chunk uploads announce
// themselves as ingest-class while control requests are interactive.
func TestClientPriorityHeaders(t *testing.T) {
	type seen struct{ tenant, pri string }
	var mu sync.Mutex
	var got []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, seen{r.Header.Get(admission.TenantHeader),
			r.Header.Get(admission.PriorityHeader)})
		mu.Unlock()
		if r.Method == http.MethodPut {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Write([]byte(`{"id":"x","state":"active"}`))
	}))
	defer ts.Close()

	c, err := NewClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	c.Namespace = "tenant-x"
	sess := &Session{ID: "x", c: c}
	if err := sess.SendChunk(0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Status(); err != nil {
		t.Fatal(err)
	}
	want := []seen{{"tenant-x", "ingest"}, {"tenant-x", "interactive"}}
	if len(got) != len(want) {
		t.Fatalf("requests = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %v, want %v", i, got[i], want[i])
		}
	}
}
