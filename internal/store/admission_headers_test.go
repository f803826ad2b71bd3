package store

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"autocheck/internal/admission"
)

// TestRemotePriorityHeaders pins the end-to-end priority propagation:
// every Remote request carries the tenant namespace and its admission
// class — restart for reads, interactive for writes, scrub for the
// replicated tier's maintenance traffic.
func TestRemotePriorityHeaders(t *testing.T) {
	type seen struct{ method, tenant, pri string }
	var mu sync.Mutex
	var got []seen
	blob := EncodeSections([]Section{{Name: "data", Data: []byte("x")}})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, seen{r.Method,
			r.Header.Get(admission.TenantHeader), r.Header.Get(admission.PriorityHeader)})
		mu.Unlock()
		if r.Method == http.MethodGet {
			w.Write(blob)
		}
	}))
	defer ts.Close()

	r, err := NewRemote(ts.URL, "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	secs := []Section{{Name: "data", Data: []byte("x")}}
	if err := r.Put("k", secs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("k"); err != nil {
		t.Fatal(err)
	}
	if err := r.PutScrub("k", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetScrub("k"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("k"); err != nil {
		t.Fatal(err)
	}

	want := []seen{
		{http.MethodPut, "tenant-a", "interactive"},
		{http.MethodGet, "tenant-a", "restart"},
		{http.MethodPut, "tenant-a", "scrub"},
		{http.MethodGet, "tenant-a", "scrub"},
		{http.MethodDelete, "tenant-a", "interactive"},
	}
	if len(got) != len(want) {
		t.Fatalf("requests = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d = %v, want %v", i, got[i], want[i])
		}
	}
}
