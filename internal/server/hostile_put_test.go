package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"autocheck/internal/store"
)

// TestServiceSurvivesHostileSectionCount: sixteen bytes — magic, version,
// a section count of 0xFFFFFFFF and the CRC-32 a sender computes over
// them — PUT to any key. The count used to size an allocation before the
// bytes behind it were looked at, and the service died of an
// out-of-memory fault no handler can recover. It must answer 400 and
// keep serving.
func TestServiceSurvivesHostileSectionCount(t *testing.T) {
	_, ts := memService(t, Config{})
	// An empty object's header with the count overwritten, sealed again.
	body := store.EncodeSections(nil)[:12]
	binary.LittleEndian.PutUint32(body[8:12], 0xFFFFFFFF)
	attack := binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/ns/objects/ckpt-000001", bytes.NewReader(attack))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile count = %d, want 400", resp.StatusCode)
	}
	c := client(t, ts.URL, "ns")
	defer c.Close()
	if keys, err := c.List(); err != nil || len(keys) != 0 {
		t.Errorf("after the refused put: keys %v, %v", keys, err)
	}
	if err := c.Put("ckpt-000002", sampleSections(2)); err != nil {
		t.Fatalf("the next request was not served: %v", err)
	}
	if got, err := c.Get("ckpt-000002"); err != nil || !reflect.DeepEqual(got, sampleSections(2)) {
		t.Errorf("object after the refused put: %v", err)
	}
}

// TestDeclaredUploadLengthIsAHint: a PUT's Content-Length pre-sizes the
// body buffer only up to 4 MiB. Sixteen bytes declaring the whole 1 GiB
// object limit, or more than it, end in a 400 that allocated less than
// twice that cap.
func TestDeclaredUploadLengthIsAHint(t *testing.T) {
	s, _ := memService(t, Config{})
	for name, declared := range map[string]int64{
		"the limit":      DefaultMaxObjectBytes,
		"past the limit": DefaultMaxObjectBytes + 1,
	} {
		t.Run(name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPut, "/v1/ns/objects/ckpt-000001", bytes.NewReader(make([]byte, 16)))
			req.ContentLength = declared
			w := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Handler().ServeHTTP(w, req)
			runtime.ReadMemStats(&after)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("16 bytes declaring %d = %d %s, want 400", declared, w.Code, w.Body)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 2*4<<20 {
				t.Errorf("refusing 16 bytes declaring %d allocated %d bytes", declared, got)
			}
		})
	}
}
