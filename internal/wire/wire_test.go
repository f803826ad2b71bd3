package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"autocheck/internal/admission"
	"autocheck/internal/faultinject"
)

// statusError is the test client's typed error, as errRemoteStatus is
// store.Remote's and *analysis.Error is analysis.Client's.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("test: %d %s", e.status, e.body) }

func typed(status int, body []byte) error {
	return &statusError{status: status, body: strings.TrimSpace(string(body))}
}

// reply is one scripted response; a request past the script's end is
// answered 204.
type reply struct {
	status     int
	retryAfter string // header value; "" sends none
}

// scripted is an httptest server answering from a script and recording
// what it was sent.
type scripted struct {
	srv *httptest.Server

	mu      sync.Mutex
	script  []reply
	bodies  [][]byte
	headers []http.Header
}

func newScripted(t *testing.T, script []reply) *scripted {
	s := &scripted{script: script}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		n := len(s.bodies)
		s.bodies = append(s.bodies, body)
		s.headers = append(s.headers, r.Header.Clone())
		s.mu.Unlock()
		if n >= len(s.script) {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if ra := s.script[n].retryAfter; ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		http.Error(w, "scripted failure", s.script[n].status)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *scripted) requests() ([][]byte, []http.Header) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bodies, s.headers
}

// fakeClock is the retry loop's test clock: sleeps advance it instantly
// and are recorded, so hint and budget behavior are asserted without
// real waiting.
type fakeClock struct {
	t     time.Time
	waits []time.Duration
}

var clockStart = time.Unix(1000, 0)

func installClock(tr *Transport) *fakeClock {
	c := &fakeClock{t: clockStart}
	tr.SetClock(
		func(d time.Duration) { c.waits = append(c.waits, d); c.t = c.t.Add(d) },
		func() time.Time { return c.t },
	)
	return c
}

// deadAddr returns an address nothing listens on: a listener is bound to
// grab a free port and closed again, so a dial is refused immediately.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

const ms = time.Millisecond

// TestLadder pins the retry ladder once for both clients: what is waited
// between attempts, when the budget ends the operation, and what each
// attempt puts on the wire.
func TestLadder(t *testing.T) {
	payload := bytes.Repeat([]byte("checkpoint"), 1000)
	retry := Retry{MaxAttempts: 4, Backoff: 10 * ms, MaxElapsed: time.Minute}
	cases := []struct {
		name     string
		script   []reply
		dead     bool // point the transport at deadAddr instead
		retry    Retry
		failFast bool
		inject   bool // arm an error at the fault site's first hit

		wantWaits    []time.Duration
		wantRequests int
		wantErr      []string // substrings; nil means success
		wantIs       error
		wantNotIs    error
	}{
		{name: "hint replaces the local backoff",
			script: []reply{{503, "2"}, {503, "2"}}, retry: retry,
			wantWaits: []time.Duration{2 * time.Second, 2 * time.Second}, wantRequests: 3},
		{name: "hint as an HTTP-date",
			script: []reply{{503, clockStart.Add(3 * time.Second).UTC().Format(http.TimeFormat)}}, retry: retry,
			wantWaits: []time.Duration{3 * time.Second}, wantRequests: 2},
		{name: "HTTP-date in the past means now",
			script: []reply{{503, clockStart.Add(-time.Hour).UTC().Format(http.TimeFormat)}}, retry: retry,
			wantRequests: 2},
		{name: "garbage hint falls back to the backoff",
			script: []reply{{503, "soon"}}, retry: retry,
			wantWaits: []time.Duration{10 * ms}, wantRequests: 2},
		{name: "negative hint falls back to the backoff",
			script: []reply{{503, "-5"}}, retry: retry,
			wantWaits: []time.Duration{10 * ms}, wantRequests: 2},
		{name: "explicit 0 retries immediately and sleeps nothing",
			script: []reply{{503, "0"}, {503, "0"}}, retry: retry,
			wantRequests: 3},
		{name: "no hint doubles the backoff",
			script: []reply{{503, ""}, {500, ""}, {502, ""}}, retry: retry,
			wantWaits: []time.Duration{10 * ms, 20 * ms, 40 * ms}, wantRequests: 4},
		{name: "attempts exhausted returns the last typed error",
			script: []reply{{503, ""}, {503, ""}, {503, ""}, {503, ""}}, retry: retry,
			wantWaits: []time.Duration{10 * ms, 20 * ms, 40 * ms}, wantRequests: 4,
			wantErr: []string{"503"}},
		{name: "a wait that overruns the budget is not taken",
			script: []reply{{503, "30"}, {503, "30"}},
			retry:  Retry{MaxAttempts: 10, Backoff: 10 * ms, MaxElapsed: 10 * time.Second},
			// One request, no sleep: the op fails fast instead of
			// sleeping blindly past its budget.
			wantRequests: 1, wantErr: []string{"retry budget", "503"}},
		{name: "unset budget is the default",
			script: []reply{{503, "16"}}, retry: Retry{MaxAttempts: 4},
			wantRequests: 1, wantErr: []string{"retry budget 15s"}},
		{name: "zero attempts still makes one",
			script: []reply{{503, ""}}, retry: Retry{},
			wantRequests: 1, wantErr: []string{"503"}},
		{name: "dial failure is retried by default",
			dead: true, retry: retry,
			wantWaits: []time.Duration{10 * ms, 20 * ms, 40 * ms},
			wantErr:   []string{"test transport"}, wantNotIs: ErrUnavailable},
		{name: "dial failure is final with fail-fast",
			dead: true, retry: retry, failFast: true,
			wantErr: []string{"test transport"}, wantIs: ErrUnavailable},
		{name: "503 is still retried with fail-fast",
			script: []reply{{503, ""}, {503, ""}}, retry: retry, failFast: true,
			wantWaits: []time.Duration{10 * ms, 20 * ms}, wantRequests: 3},
		{name: "injected fault costs an attempt before the wire",
			retry: retry, inject: true,
			wantWaits: []time.Duration{10 * ms}, wantRequests: 1},
		{name: "injected fault on the only attempt fails the op",
			retry: Retry{MaxAttempts: 1}, inject: true,
			wantRequests: 0, wantErr: []string{"test transport", "faultinject"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newScripted(t, tc.script)
			addr := srv.srv.URL
			if tc.dead {
				addr = deadAddr(t)
			}
			tr, err := New("test transport", addr, typed)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			clock := installClock(tr)
			if tc.inject {
				tr.Faults = faultinject.NewRegistry(1)
				tr.Site = "test.do"
				tr.Faults.Arm(faultinject.Failpoint{Site: tr.Site, Action: faultinject.ActionError, Nth: 1})
			}
			_, err = tr.Do(tc.retry, Request{
				Method: http.MethodPut, Path: "/objects/k", Body: [][]byte{payload},
				Tenant: "tenant-a", Priority: admission.Ingest, FailFastDial: tc.failFast,
			})
			if (err != nil) != (tc.wantErr != nil) {
				t.Fatalf("err = %v, want failure %v", err, tc.wantErr != nil)
			}
			for _, frag := range tc.wantErr {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("err = %q, want it to contain %q", err, frag)
				}
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("err = %v, want it to wrap %v", err, tc.wantIs)
			}
			if tc.wantNotIs != nil && errors.Is(err, tc.wantNotIs) {
				t.Errorf("err = %v wraps %v", err, tc.wantNotIs)
			}
			if len(tc.script) > 0 && tc.wantErr != nil {
				// analysis.Client's session resume does errors.As on the
				// budget error to reach the typed one.
				var se *statusError
				if !errors.As(err, &se) || se.status != tc.script[0].status {
					t.Errorf("err = %v does not wrap the client's typed error", err)
				}
			}
			if !reflect.DeepEqual(clock.waits, tc.wantWaits) {
				t.Errorf("waits = %v, want %v", clock.waits, tc.wantWaits)
			}
			bodies, headers := srv.requests()
			if len(bodies) != tc.wantRequests {
				t.Fatalf("requests = %d, want %d", len(bodies), tc.wantRequests)
			}
			// A client reusing a reader spent by a failed send would put an
			// empty body on the retry.
			for i, b := range bodies {
				if !bytes.Equal(b, payload) {
					t.Errorf("attempt %d body has %d bytes, want the full %d", i+1, len(b), len(payload))
				}
				h := headers[i]
				if h.Get(admission.TenantHeader) != "tenant-a" || h.Get(admission.PriorityHeader) != "ingest" {
					t.Errorf("attempt %d admission headers = %q / %q", i+1,
						h.Get(admission.TenantHeader), h.Get(admission.PriorityHeader))
				}
			}
		})
	}
}

// TestStatusRule pins the one transient-status rule both clients follow:
// 5xx and 429 are retried with the hint honoured, every other failure is
// final after exactly one request and its Retry-After is ignored.
func TestStatusRule(t *testing.T) {
	cases := []struct {
		status    int
		transient bool
	}{
		{500, true}, {502, true}, {503, true}, {429, true},
		{400, false}, {401, false}, {403, false}, {404, false}, {409, false}, {413, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.status), func(t *testing.T) {
			if Transient(tc.status) != tc.transient {
				t.Fatalf("Transient(%d) = %v", tc.status, !tc.transient)
			}
			srv := newScripted(t, []reply{{tc.status, "3"}})
			tr, err := New("test transport", srv.srv.URL, typed)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			clock := installClock(tr)
			_, err = tr.Do(DefaultRetry(), Request{Method: http.MethodGet, Path: "/x"})
			if tc.transient {
				if err != nil {
					t.Fatalf("%d then 204: %v", tc.status, err)
				}
				if want := []time.Duration{3 * time.Second}; !reflect.DeepEqual(clock.waits, want) {
					t.Errorf("waits = %v, want the hint %v", clock.waits, want)
				}
				if bodies, _ := srv.requests(); len(bodies) != 2 {
					t.Errorf("requests = %d, want 2", len(bodies))
				}
				return
			}
			var se *statusError
			if !errors.As(err, &se) || se.status != tc.status || se.body != "scripted failure" {
				t.Fatalf("err = %v, want the typed %d error carrying the body", err, tc.status)
			}
			if strings.Contains(err.Error(), "retry budget") {
				t.Errorf("final status wrapped as a budget error: %v", err)
			}
			if len(clock.waits) != 0 {
				t.Errorf("slept %v on a final status", clock.waits)
			}
			if bodies, _ := srv.requests(); len(bodies) != 1 {
				t.Errorf("requests = %d, want exactly 1", len(bodies))
			}
		})
	}
}

// TestResponseDeclaredLengthIsAHint: a response declaring 1 TiB over a
// 10-byte body is a clean error that allocated the pre-size cap, not
// what the header claims.
func TestResponseDeclaredLengthIsAHint(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.FormatInt(1<<40, 10))
		w.Write([]byte("0123456789"))
	}))
	defer srv.Close()
	tr, err := New("test transport", srv.URL, typed)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = tr.Do(Retry{MaxAttempts: 1}, Request{Method: http.MethodGet, Path: "/objects/k"})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "reading response") {
		t.Fatalf("err = %v, want a failed response read", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*maxPresize {
		t.Errorf("a 10-byte response declaring 1 TiB allocated %d bytes", got)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadUploadRefusesDeclaredOverLimit: an upload declaring more than
// the limit is refused before a byte is read, with the error both
// services render as "too large".
func TestReadUploadRefusesDeclaredOverLimit(t *testing.T) {
	body := &countingReader{r: bytes.NewReader(make([]byte, 64))}
	r := httptest.NewRequest(http.MethodPut, "/objects/k", body)
	r.ContentLength = 1 << 20
	_, err := ReadUpload(httptest.NewRecorder(), r, 1024)
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) || mbe.Limit != 1024 {
		t.Fatalf("err = %v, want one wrapping *http.MaxBytesError{Limit: 1024}", err)
	}
	if body.n != 0 {
		t.Errorf("read %d bytes of a refused upload", body.n)
	}
	// Within the limit the body is read whole, in one buffer of its size.
	r = httptest.NewRequest(http.MethodPut, "/objects/k", bytes.NewReader(make([]byte, 64)))
	got, err := ReadUpload(httptest.NewRecorder(), r, 1024)
	if err != nil || len(got) != 64 || cap(got) != 64 {
		t.Errorf("ReadUpload = %d bytes (cap %d), %v; want 64 in a 64-byte buffer", len(got), cap(got), err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Unix(1000, 0)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"2", 2 * time.Second, true},
		// An explicit 0 is a real hint ("retry now"), not an absent header.
		{"0", 0, true},
		{"-5", 0, false},
		{"garbage", 0, false},
		{now.Add(3 * time.Second).UTC().Format(http.TimeFormat), 3 * time.Second, true},
		{now.Add(-3 * time.Second).UTC().Format(http.TimeFormat), 0, true},
	}
	for _, tc := range cases {
		if d, ok := parseRetryAfter(tc.in, now); d != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, d, ok, tc.want, tc.ok)
		}
	}
}

func TestAddrNormalising(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:9581":            "http://127.0.0.1:9581",
		"http://127.0.0.1:9581/":    "http://127.0.0.1:9581",
		"https://ckpt.example:443":  "https://ckpt.example:443",
		"http://host:1/behind/path": "http://host:1/behind/path",
	} {
		tr, err := New("test transport", addr, typed)
		if err != nil {
			t.Errorf("New(%q): %v", addr, err)
			continue
		}
		if tr.base != want {
			t.Errorf("New(%q) base = %q, want %q", addr, tr.base, want)
		}
	}
	for _, addr := range []string{"ftp://host:21", "http://bad host"} {
		if _, err := New("test transport", addr, typed); err == nil {
			t.Errorf("New(%q) accepted", addr)
		}
	}
}
