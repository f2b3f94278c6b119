package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRequestSurface pins the request bodies the way
// TestPlanserverdFlagSurface pins the daemon's flags: the JSON field
// names of PlanRequest and ExecuteRequest must equal the request-field
// tables in docs/api.md, so a new request knob fails here instead of
// going undocumented. A field that left the surface ("vectorized")
// must stay harmless for clients that still send it.
func TestRequestSurface(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := func(heading string) []string {
		_, sec, ok := strings.Cut(string(doc), "\n"+heading)
		if !ok {
			t.Fatalf("docs/api.md has no section %q", heading)
		}
		sec, _, _ = strings.Cut(sec, "\n## ")
		var out []string
		for _, m := range regexp.MustCompile("(?m)^\\| `([A-Za-z]+)` \\|").FindAllStringSubmatch(sec, -1) {
			out = append(out, m[1])
		}
		slices.Sort(out)
		return out
	}
	tags := func(v any) []string {
		var out []string
		for i, rt := 0, reflect.TypeOf(v); i < rt.NumField(); i++ {
			name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
			out = append(out, name)
		}
		slices.Sort(out)
		return out
	}
	for _, c := range []struct {
		heading string
		req     any
	}{
		{"## POST /plan — ", PlanRequest{}},
		{"## POST /execute — ", ExecuteRequest{}},
	} {
		if got, want := tags(c.req), documented(c.heading); len(got) == 0 || !slices.Equal(got, want) {
			t.Errorf("%T JSON fields and the docs/api.md table under %q differ:\n  struct: %v\n  docs:   %v",
				c.req, c.heading, got, want)
		}
	}

	_, c, done := newExecServer(t)
	defer done()
	post := func(body string) map[string]any {
		t.Helper()
		res, err := http.Post(c.BaseURL+"/execute", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, decode %v, body %v", body, res.StatusCode, err, out)
		}
		return out
	}
	const q = `"sql": "select * from orders, customer where o_custkey = c_custkey", "maxRows": 50`
	plain, old := post("{"+q+"}"), post("{"+q+`, "vectorized": true}`)
	if !reflect.DeepEqual(plain["rows"], old["rows"]) || plain["rowCount"] != old["rowCount"] {
		t.Errorf(`"vectorized": true changed the result: %v rows vs %v`, old["rowCount"], plain["rowCount"])
	}
	for _, op := range old["operators"].([]any) {
		if _, has := op.(map[string]any)["batches"]; has {
			t.Errorf("operator stats still carry a batches counter: %v", op)
		}
	}
}

// TestOversizedBody: a body over maxRequestBytes is refused with 413
// on every endpoint that decodes one, counted as rejected, and leaves
// the server serving.
func TestOversizedBody(t *testing.T) {
	_, c, done := newExecServer(t)
	defer done()
	big := append([]byte(`{"sql": "`), bytes.Repeat([]byte("x"), 2<<20)...)
	big = append(big, `"}`...)
	for _, path := range []string{"/plan", "/explain", "/execute"} {
		res, err := http.Post(c.BaseURL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 2 MiB body: status %d, want 413", path, res.StatusCode)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"plan", "explain", "execute"} {
		if got := st.Endpoints[ep]; got.Rejected != 1 || got.Requests != 0 {
			t.Errorf("/stats %s: rejected=%d requests=%d, want 1 and 0", ep, got.Rejected, got.Requests)
		}
	}
	if _, err := c.Plan(nationRegionSQL); err != nil {
		t.Errorf("normal /plan after the oversized ones: %v", err)
	}
	if _, err := c.Execute(ExecuteRequest{SQL: nationRegionSQL}); err != nil {
		t.Errorf("normal /execute after the oversized ones: %v", err)
	}
}

// TestNegativeTimeout: a negative timeoutMs in a POST body is a 400 on
// every endpoint that takes one, counted as rejected, as it is in
// GET /plan's query string; 0 still means "not set".
func TestNegativeTimeout(t *testing.T) {
	_, c, done := newExecServer(t)
	defer done()
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/plan", `{"sql": "` + nationRegionSQL + `", "timeoutMs": -1}`, http.StatusBadRequest},
		{"/explain", `{"sql": "` + nationRegionSQL + `", "timeoutMs": -1}`, http.StatusBadRequest},
		{"/execute", `{"sql": "` + nationRegionSQL + `", "timeoutMs": -1}`, http.StatusBadRequest},
		{"/plan", `{"sql": "` + nationRegionSQL + `", "timeoutMs": 0}`, http.StatusOK},
		{"/explain", `{"sql": "` + nationRegionSQL + `", "timeoutMs": 0}`, http.StatusOK},
		{"/execute", `{"sql": "` + nationRegionSQL + `", "timeoutMs": 0}`, http.StatusOK},
		// Anything but whitespace after the JSON value is malformed.
		{"/plan", `{"sql": "` + nationRegionSQL + `"} garbage`, http.StatusBadRequest},
		{"/explain", `{"sql": "` + nationRegionSQL + `"} {}`, http.StatusBadRequest},
		{"/execute", `{"sql": "` + nationRegionSQL + `"} 1`, http.StatusBadRequest},
		{"/plan", `{"sql": "` + nationRegionSQL + `"}` + " \n\t", http.StatusOK},
		{"/explain", `{"sql": "` + nationRegionSQL + `"}` + " \n\t", http.StatusOK},
		{"/execute", `{"sql": "` + nationRegionSQL + `"}` + " \n\t", http.StatusOK},
	} {
		res, err := http.Post(c.BaseURL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		res.Body.Close()
		if res.StatusCode != tc.want {
			t.Errorf("POST %s %s: status %d, want %d", tc.path, tc.body, res.StatusCode, tc.want)
		}
	}
	res, err := http.Get(c.BaseURL + "/plan?timeoutMs=-1&q=" + url.QueryEscape(nationRegionSQL))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /plan?timeoutMs=-1: status %d, want 400", res.StatusCode)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for ep, want := range map[string]int64{"plan": 3, "explain": 2, "execute": 2} {
		if got := st.Endpoints[ep].Rejected; got != want {
			t.Errorf("/stats %s: rejected=%d, want %d", ep, got, want)
		}
	}
}
