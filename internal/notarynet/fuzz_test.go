package notarynet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNotarynetRequest feeds arbitrary request lines to the server's line
// handler. It must never panic, must answer with a response that encodes
// as one JSON line, and an error response must leave the served cluster's
// sessions as they were.
func FuzzNotarynetRequest(f *testing.F) {
	root, leaves := testPKI(f)
	chain := EncodeChain(leaves[:1])
	chain = append(chain, EncodeCert(root.Cert))
	for _, req := range []Request{
		{Op: "observe", ID: "a-0", Chain: chain, Port: 443},
		{Op: "observe_ca", ID: "a-1", Cert: EncodeCert(root.Cert), Port: 8883},
		{Op: "observe_batch", ID: "a-2", Batch: []BatchItem{{Chain: chain, Port: 993}, {}}},
		{Op: "has_record", Cert: EncodeCert(leaves[1])},
		{Op: "validate", StoreName: "fuzz", Roots: []string{EncodeCert(root.Cert)}},
		// TestProtocolErrors
		{Op: "explode"},
		{Op: "has_record", Cert: "!!!"},
		{Op: "observe", Chain: []string{"aGVsbG8="}},
		{Op: "observe"},
		{Op: "validate"},
		{Op: "stats"},
	} {
		line, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	// TestMalformedJSONLine
	f.Add([]byte("this is not json"))
	f.Add([]byte(""))

	n := oneShard(f)
	srv, err := NewServer(n, "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	f.Fuzz(func(t *testing.T, line []byte) {
		before := n.Sessions()
		resp, ok := srv.serveLine(line).(Response)
		if !ok {
			t.Fatalf("line handler answered with %T, want Response", srv.serveLine(line))
		}
		body, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("response %+v does not encode: %v", resp, err)
		}
		if bytes.ContainsAny(body, "\r\n") {
			t.Fatalf("response spans lines: %q", body)
		}
		if !resp.OK && n.Sessions() != before {
			t.Fatalf("error response %q changed the sessions: %d → %d", resp.Error, before, n.Sessions())
		}
	})
}
