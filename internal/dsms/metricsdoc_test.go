package dsms

import (
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// Metric-name drift audit: every geostreams_* family named in a source
// string literal must appear in the README/DESIGN metric tables, and
// every family the docs promise must exist in the source. Tokens ending
// in `_` (wildcard prefixes like `geostreams_exec_*`) don't count as
// family names on either side.

var (
	docNameRe = regexp.MustCompile(`geostreams_[a-z0-9_]+`)
	litNameRe = regexp.MustCompile(`"geostreams_[a-z0-9_]+`)
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// documentedFamilies parses README.md and DESIGN.md for full family
// names.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	root := repoRoot(t)
	out := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docNameRe.FindAllString(string(b), -1) {
			if !strings.HasSuffix(m, "_") {
				out[m] = true
			}
		}
	}
	return out
}

// sourceFamilies scans every non-test .go file under internal/ and cmd/
// for quoted geostreams_* literals. Quoting matters: comments mention
// family names too, but only a literal can reach the registry.
func sourceFamilies(t *testing.T) map[string]bool {
	t.Helper()
	root := repoRoot(t)
	out := map[string]bool{}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range litNameRe.FindAllString(string(b), -1) {
				name := strings.TrimPrefix(m, `"`)
				if !strings.HasSuffix(name, "_") {
					out[name] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func missingFrom(set, in map[string]bool) []string {
	var out []string
	for name := range set {
		if !in[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func TestMetricNamesMatchDocs(t *testing.T) {
	t.Parallel()
	docs := documentedFamilies(t)
	src := sourceFamilies(t)
	if len(src) == 0 || len(docs) == 0 {
		t.Fatalf("degenerate scan: %d source families, %d documented", len(src), len(docs))
	}
	if miss := missingFrom(src, docs); len(miss) > 0 {
		t.Errorf("families emitted in code but absent from README/DESIGN metric tables:\n  %s",
			strings.Join(miss, "\n  "))
	}
	if stale := missingFrom(docs, src); len(stale) > 0 {
		t.Errorf("families documented in README/DESIGN but no longer in the source:\n  %s",
			strings.Join(stale, "\n  "))
	}
}

// TestLiveMetricsAreDocumented drives a wire-fed traced server with an
// SLO and a push subscriber, then checks that every family the live
// registry actually exposes is documented. The static audit above can't
// see a name assembled at runtime; this one can.
func TestLiveMetricsAreDocumented(t *testing.T) {
	docs := documentedFamilies(t)

	s, addr, stop := startWireServer(t)
	defer stop()
	s.SetTraceInterval(1)
	s.SetFrameAgeSLO(time.Nanosecond)
	g := tracedFeedImager(t, addr, 2)
	waitForBands(t, s, "vis", "nir")
	reg, err := s.Register("stretch(ndvi(nir, vis), linear, 0, 255)",
		DeliveryOptions{Colormap: "ndvi"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	sub, err := c.subscribe(int64(reg.ID), 64, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close() //nolint:errcheck
	waitForSubscriber(t, reg)
	s.Start()
	go func() {
		for {
			if _, err := sub.Next(); err != nil {
				return
			}
		}
	}()
	view := viewFrames(t, reg)
	for {
		if _, ok := view.Next(10 * time.Second); !ok {
			break
		}
	}
	if err := reg.Err(); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var undocumented []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Fatalf("malformed TYPE line: %q", line)
		}
		name := fields[2]
		if !strings.HasPrefix(name, "geostreams_") {
			continue // go_* / process_* runtime families
		}
		if !docs[name] {
			undocumented = append(undocumented, name)
		}
	}
	if len(undocumented) > 0 {
		sort.Strings(undocumented)
		t.Errorf("live registry exposes undocumented families:\n  %s",
			strings.Join(undocumented, "\n  "))
	}
}
