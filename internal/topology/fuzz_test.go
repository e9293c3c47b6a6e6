package topology

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzDecodeKey feeds arbitrary bytes to DecodeKey, the parser the
// provision-cache migration runs over cached topology keys. It must never
// panic, and whatever it accepts must survive a re-encode: decoding the
// canonical encoding of the result gives the same site count and links, and
// that encoding is a fixed point. The committed corpus under
// testdata/fuzz/FuzzDecodeKey replays on every plain go test.
func FuzzDecodeKey(f *testing.F) {
	f.Add(InitialTopology(Internet2(15)).AppendKey(nil))
	f.Add(RandomTopology(ISP(12, 6, 1), 3).AppendKey(nil))
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, key []byte) {
		n, links, ok := DecodeKey(key, nil)
		if !ok {
			return
		}
		enc := AppendKeyFromLinks(nil, n, links)
		n2, links2, ok := DecodeKey(enc, nil)
		if !ok || n2 != n || !slices.Equal(links2, links) {
			t.Fatalf("re-encoded key %x decodes to (%d, %v, %v), want (%d, %v)", enc, n2, links2, ok, n, links)
		}
		if again := AppendKeyFromLinks(nil, n2, links2); !bytes.Equal(again, enc) {
			t.Fatalf("canonical key %x re-encodes to %x", enc, again)
		}
	})
}

// FuzzReadNetwork feeds arbitrary bytes to ReadNetwork, the loader for the
// topology files the route tables are built from. It must never panic, and
// a network it accepts must round-trip through WriteTo unchanged. The
// committed corpus under testdata/fuzz/FuzzReadNetwork replays on every
// plain go test.
func FuzzReadNetwork(f *testing.F) {
	for _, n := range []*Network{Square(), Internet2(15), InterDC(8, 3, 4, 1)} {
		var buf bytes.Buffer
		if _, err := n.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"sites":[{"name":"a","router_ports":1}],"theta_gbps":1,"reach_km":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := ReadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := net.WriteTo(&buf); err != nil {
			t.Fatalf("accepted network does not serialize: %v", err)
		}
		back, err := ReadNetwork(&buf)
		if err != nil {
			t.Fatalf("serialized network rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, net) {
			t.Fatalf("round trip changed the network:\n got %+v\nwant %+v", back, net)
		}
	})
}
