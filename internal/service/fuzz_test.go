package service

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"binetrees/internal/harness"
)

// maxErrorBody bounds every 4xx body: the longest message (an unknown system
// key plus the list of valid ones) around maxEcho bytes of client input that
// %q may expand fourfold.
const maxErrorBody = 512

// FuzzParseRequest pins the daemon's untrusted-input contract over the path
// segment and the raw query: a request either parses to a known experiment
// name with a canonical systems selection, or is refused with a 4xx whose
// body is bounded whatever the client sent — and a refusal is answered by the
// handler without a flight, so nothing is compiled or rendered for it.
func FuzzParseRequest(f *testing.F) {
	huge := strings.Repeat("A", 1<<20)
	for _, seed := range [][2]string{
		{"fig1", ""},
		{"all", "full=1&systems=fugaku,lumi"},
		{"all", "systems=LUMI, lumi ,misc"},
		{"all", "systems=" + strings.Repeat(" ", 100) + "lumi"},
		{"nope", ""},
		{"", "full=1"},
		{huge, ""},
		{"fig1", "systems=lumi"},
		{"all", "systems=lumi&systems=fugaku"},
		{"table3", "full=1&full=0"},
		{"all", "systems="},
		{"all", "systems=,"},
		{"all", "systems=" + huge},
		{"all", "systems=lumi," + huge},
		{"fig9b", "full=banana"},
		{"fig9b", "full=" + huge},
		{"fig9b", "full=%ff%fe&x=%zz;y"},
		{"all", "systems=\xff\xfe\x00"},
	} {
		f.Add(seed[0], seed[1])
	}
	log := &accessTally{}
	srv, err := New(Config{AccessLog: log})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	valid := append(harness.ExperimentNames(), "all")

	f.Fuzz(func(t *testing.T, segment, rawQuery string) {
		r := httptest.NewRequest(http.MethodGet, "/artifact/x", nil)
		r.URL = &url.URL{Path: "/artifact/" + segment, RawQuery: rawQuery}
		r.SetPathValue("experiment", segment)
		name, _, systems, code, err := parseRequest(r)
		if err == nil {
			if !slices.Contains(valid, name) || name != segment {
				t.Fatalf("accepted experiment %q for segment %.80q", name, segment)
			}
			if norm, nerr := harness.NormalizeSystems(systems); nerr != nil || !slices.Equal(norm, systems) {
				t.Fatalf("accepted systems %q are not canonical (%q, %v)", systems, norm, nerr)
			}
			if name != "all" && systems != nil {
				t.Fatalf("%s accepted a systems selection %q", name, systems)
			}
			return
		}
		if code < 400 || code > 499 || name != "" || systems != nil {
			t.Fatalf("refusal with status %d, name %q, systems %q", code, name, systems)
		}
		rec := httptest.NewRecorder()
		srv.artifact(rec, r)
		if rec.Code != code || rec.Body.Len() > maxErrorBody {
			t.Fatalf("handler answered %d with %d bytes, parseRequest said %d: %.80q", rec.Code, rec.Body.Len(), code, rec.Body.String())
		}
		if flights := log.role("leader") + log.role("follower") + log.role("shed"); flights != 0 {
			t.Fatalf("a refused request reached the flight table: %d flight lines logged", flights)
		}
	})
}

// TestParseRequestClippingKeepsVerdicts pins that bounding what an error
// echoes refuses nothing that used to be accepted: a valid key padded past
// maxEcho is still trimmed and selected.
func TestParseRequestClippingKeepsVerdicts(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/artifact/all?systems="+strings.Repeat("+", 100)+"LUMI,misc", nil)
	r.SetPathValue("experiment", "all")
	_, _, systems, _, err := parseRequest(r)
	if err != nil || !slices.Equal(systems, []string{"lumi", "misc"}) {
		t.Fatalf("padded key: systems %q, err %v", systems, err)
	}
}
