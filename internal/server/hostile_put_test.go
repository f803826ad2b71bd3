package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"reflect"
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
