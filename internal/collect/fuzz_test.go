package collect

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCollectRequest feeds arbitrary request lines to the server's line
// handler. It must never panic, must answer with a response that encodes
// as one JSON line, and an error response must leave the aggregate as it
// was.
func FuzzCollectRequest(f *testing.F) {
	for _, seed := range []string{
		// TestCollectErrors
		"garbage",
		`{"op":"nope"}`,
		`{"op":"submit"}`,
		// TestBlankLineSkipped
		"",
		`{"op":"summary"}`,
		// TestDuplicateSubmitsNotDoubleCounted
		`{"op":"submit","id":"retry-0","report":{"model":"","manufacturer":"HTC","operator":"","country":"","version":"4.0","rooted":false,"store_size":140,"store_hashes":null,"probes":null}}`,
		`{"op":"submit","report":{"manufacturer":"ASUS","version":"4.4","store_size":150,"probes":[{"host":"b.example","port":443,"device_validated":false,"err":"dial refused","err_kind":"refused"}]}}`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	f.Fuzz(func(t *testing.T, line []byte) {
		before := srv.Summary()
		resp, ok := srv.serveLine(line).(response)
		if !ok {
			t.Fatalf("line handler answered with %T, want response", srv.serveLine(line))
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("response %+v does not encode: %v", resp, err)
		}
		if bytes.ContainsAny(body, "\r\n") {
			t.Fatalf("response spans lines: %q", body)
		}
		if !resp.OK && !reflect.DeepEqual(srv.Summary(), before) {
			t.Fatalf("error response %q changed the aggregate", resp.Error)
		}
	})
}
