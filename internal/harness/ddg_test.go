package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"autocheck/internal/core"
	"autocheck/internal/ddg"
	"autocheck/internal/progs"
)

// goldenDDGs was recorded at the commit before graph construction moved
// into the fused sweep, when a BuildDDG run still took the split
// three-sweep schedule and created every variable vertex with its final
// kind: per port at its DefaultScale, the SHA-256 of completeListing and
// of contractedListing, and each graph's vertex and edge counts.
var goldenDDGs = map[string]struct {
	complete, contracted string
	nodes, edges         int // Complete
	mliNodes, mliEdges   int // Contracted
}{
	"Himeno":  {"b411ca14eafe90a79615e3a32142765194f3743f8d46711e736b1abce5521105", "aed0f6c96738e430769424f99df6dc8e7812f4931d52c573d3b7d68ead942d40", 12462, 16487, 3, 930},
	"HPCCG":   {"6ba8b70d697443c94b58af9dc6f276e558c0b467b8878b897f37e2cbd6be42e9", "6d836112f25e578c1f343874e766e0eb6725c3f4b4048f9428de66303adf6793", 31724, 40432, 8, 3215},
	"CG":      {"f881b63d75785141840c296dacf6329c6c290fc843d1ea04fe176bb0ffed7cf1", "733d8171c94446bac694ae2b992ab18329be700eb3eeafb03771837efacf8c1d", 25202, 34042, 6, 5376},
	"MG":      {"2bb1d0ce39c256f50c4327a9aa100030f243a37785eb6d3398877b5bfb5b6bcd", "a448dbc0dbfd4c9850ca7d56cb69c14e9790a196e5f149c2c1fefce513ebea0f", 11458, 14182, 3, 1240},
	"FT":      {"ed6cd11a570ff1e2458c51b46b58912ec22990fd730fe9189b6cb18f171fb3ab", "a383fc04170903a46f443f83e4f8a1581db9c5f21fea66c70ea28e5b971d4975", 5424, 7210, 4, 768},
	"SP":      {"3ca18382721c494b381f0abd65865185caac707d6e77a4375cf70ece74dd0680", "e036d30b38d9a2c8f58d6066502f4790b4b1bb5a634b6ee4e235cc200be38c4b", 12785, 15882, 3, 1550},
	"EP":      {"5ef9f8dcf3de1cd0a2114ee152711cc7cfbc9eb22973eac5ad4f41ffc35c4bf7", "7a069c1f07b9d6b1bcc7c0ce5e0f76232f4a1e355829616f90255732bcf016f2", 4164, 5609, 4, 465},
	"IS":      {"458c5ca640c815a135387184f6e1507dbe547ce399820e593c840bcf9ea626db", "eacf7986391db1cefb95c9c4585c7591db7c466f0a3f31d36b75e4a8b5814099", 5105, 6278, 4, 492},
	"BT":      {"126222d4461c82692255c7d47aaeddddfe77ccb98aedcff719ec0151d646d914", "7a0b95cc04cdee177c074af0ccfee4645d65a6c76cc3c94a6e401dd5303ca4cb", 17774, 21802, 2, 1860},
	"LU":      {"574a2ae5e6fa216cc7a51b64e853c148ed4286c9e82ade8a1f2dec4d44282831", "072dd4bb42286d8328929ee90de6a3bc4e6c9c3fb8afc2b3e4bf5c9acb16ae37", 16817, 20842, 4, 2480},
	"CoMD":    {"797a4e38edd875cec26c22c41981295d097f6a4ce1697f6d43bc00c74d778ed0", "086be693a7dd4e897878cbba45d05020111644440b0f250f80d5132abf795601", 10962, 14018, 3, 1032},
	"miniAMR": {"9f47449d563ded8270cd801a76c8a51e80768ead71ca9b76aeea5e85f823ce1a", "abce7a0ef3cf780fc70e0ad85a6989a3ee73d2c38e67e0f28cee414253d7b324", 6120, 7427, 15, 390},
	"AMG":     {"eb99642f3942080e3720aeedbd20df498c3609906eff2b92aac4ed9f48c2ffc8", "b65d6a89bd120559f0ad8d7e6c4e156929e489fbffcfa12fb9f17337eb42fcd2", 46153, 61842, 7, 4632},
	"HACC":    {"77358963f174625a37aa9a94b42ed9807b12b0f4682214dc4293abecb6509663", "cd57fb055aa0374f523e49476c60aab7eb9643b37369981f723c71e8b7ad95fa", 21364, 27718, 2, 1792},
}

// completeListing renders the complete DDG exactly: every vertex with its
// ID, name and kind in insertion order, then the whole time-ordered R/W
// sequence. Construction is deterministic, so the listing is too.
func completeListing(g *ddg.Graph) string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "node %d %s %s\n", n.ID, n.Name, n.Kind)
	}
	for _, e := range g.Events() {
		fmt.Fprintf(&sb, "ev %d %s @%d\n", e.Node.ID, e.Kind, e.Time)
	}
	return sb.String()
}

// contractedListing renders the contracted DDG by content, sorted:
// contraction resolves roots through maps, so vertex IDs past the kept set
// and the order of equal-time events are not stable run to run.
func contractedListing(g *ddg.Graph) string {
	var lines []string
	for _, n := range g.Nodes() {
		lines = append(lines, fmt.Sprintf("node %s %s", n.Name, n.Kind))
	}
	for _, e := range g.Events() {
		lines = append(lines, fmt.Sprintf("ev %s %s @%d", e.Node.Name, e.Kind, e.Time))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// TestGoldenDDGHashes: on every port, a BuildDDG analysis produces the
// complete and contracted graphs recorded in goldenDDGs, and the online
// engine — fed the trace whole and in 7-record batches, so that vertices
// are created while records are parked — produces the same two listings.
func TestGoldenDDGHashes(t *testing.T) {
	if len(progs.All()) != len(goldenDDGs) {
		t.Fatalf("%d ports, %d golden DDGs", len(progs.All()), len(goldenDDGs))
	}
	for _, b := range progs.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			p, err := Prepare(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			opts := p.opts()
			opts.BuildDDG = true
			res, err := core.Analyze(p.Records, p.Spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			complete, contracted := completeListing(res.Complete), contractedListing(res.Contracted)
			want := goldenDDGs[b.Name]
			got := want
			got.complete, got.contracted = sha(complete), sha(contracted)
			got.nodes, got.edges = len(res.Complete.Nodes()), res.Complete.EdgeCount()
			got.mliNodes, got.mliEdges = len(res.Contracted.Nodes()), res.Contracted.EdgeCount()
			if got != want {
				t.Errorf("DDGs differ from the recorded ones:\ngot  %q: {%q, %q, %d, %d, %d, %d},\nwant %+v",
					b.Name, got.complete, got.contracted, got.nodes, got.edges, got.mliNodes, got.mliEdges, want)
			}

			var every7 []int
			for c := 7; c < len(p.Records); c += 7 {
				every7 = append(every7, c)
			}
			for label, cuts := range map[string][]int{"whole": nil, "every-7": every7} {
				online := observeCut(t, p, opts, cuts)
				if completeListing(online.Complete) != complete {
					t.Errorf("online %s: complete DDG differs from core.Analyze", label)
				}
				if contractedListing(online.Contracted) != contracted {
					t.Errorf("online %s: contracted DDG differs from core.Analyze", label)
				}
			}
		})
	}
}
