package vnnfleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// bodyTransport answers every request with 200 and a fixed body, so a
// list decode runs without a socket.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// listReference is what the list decoder must accept: a body within the
// byte cap that is one JSON object, with only whitespace after it, which
// decodes into listResponse (encoding/json's rules: unknown fields
// allowed) to at most maxListEntries entries, each a fingerprint.
func listReference(body []byte) ([]string, bool) {
	if len(body) > maxListBytes {
		return nil, false
	}
	if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '{' {
		return nil, false
	}
	var lr listResponse
	if json.Unmarshal(body, &lr) != nil || len(lr.Fingerprints) > maxListEntries {
		return nil, false
	}
	for _, fp := range lr.Fingerprints {
		if !validFingerprint(fp) {
			return nil, false
		}
	}
	return lr.Fingerprints, true
}

// FuzzFleetList drives the GET /v1/fleet/fingerprints decoder: it never
// panics, accepts exactly the bodies listReference accepts, and returns
// their entries.
func FuzzFleetList(f *testing.F) {
	valid := fpOf(compilePrefix, "valid")
	digest := valid[len(compilePrefix):]
	list := func(elems ...string) []byte {
		body, err := json.Marshal(listResponse{Fingerprints: elems})
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	for _, seed := range [][]byte{
		list(valid, monitorPrefix+digest),
		list(),
		[]byte(`{}`),
		[]byte(`{"fingerprints":null}`),
		[]byte(" \n{\"fingerprints\":[\"" + valid + "\"],\"extra\":{\"a\":[1,2]}}\r\n\t "),
		[]byte(`{"FINGERPRINTS":["` + valid + `"]}`),
		[]byte(`{"fingerprints":[]} junk`),
		[]byte(`{"fingerprints":[]}{}`),
		[]byte(`{"fingerprints":[]}]`),
		[]byte(`null`),
		[]byte(`["` + valid + `"]`),
		[]byte(`{"fingerprints":["` + valid + `",`),
		[]byte(`{"fingerprints":[1]}`),
		list("vnnmw1-" + digest),
		list(compilePrefix + strings.ToUpper(digest)),
		list(valid[:len(valid)-1]),
		list(valid + "0"),
		[]byte("{\"fingerprints\":[\"vnn1-\xff\xfe" + digest[2:] + "\"]}"),
		[]byte("{\"x\":\"\xff\",\"fingerprints\":[]}"),
		list(fps("many", maxListEntries+1)...),
		[]byte(`{"fingerprints":[` + strings.Repeat(" ", maxListBytes) + `]}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		p := NewPeer(newFakeStore(), Options{Client: &http.Client{Transport: bodyTransport(body)}})
		got, err := p.list(context.Background(), "http://peer.invalid", nil)
		want, ok := listReference(body)
		if (err == nil) != ok {
			t.Fatalf("list error %v, reference accepts %v", err, ok)
		}
		if !ok {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("list %q, reference %q", got, want)
		}
		for _, fp := range got {
			if !validFingerprint(fp) {
				t.Fatalf("accepted %q", fp)
			}
		}
	})
}
