package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vectordb"
)

// TestCopilotDBRetired is the compile-guard for the retired DB() alias:
// the accessor is Index(); a resurrected DB() method fails this test.
func TestCopilotDBRetired(t *testing.T) {
	typ := reflect.TypeOf(&Copilot{})
	if _, ok := typ.MethodByName("DB"); ok {
		t.Fatal("Copilot.DB() is retired; use Index()")
	}
	if _, ok := typ.MethodByName("Index"); !ok {
		t.Fatal("Copilot.Index() accessor missing")
	}
}

// TestMultiTenantLearnAndRetrieve pins the tenant threading through
// Learn/RetrieveIn: learned entries land in the owning team's namespace,
// scoped retrieval stays inside it, an unknown team reads as empty
// without error, and the unscoped read still spans every tenant.
func TestMultiTenantLearnAndRetrieve(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{MultiTenant: true})
	teams := []string{"Alpha", "Beta"}
	perTeam := 25
	for i := 0; i < perTeam*len(teams); i++ {
		inc := e.corpus.Incidents[i].Clone()
		inc.OwningTeam = teams[i%len(teams)]
		if err := c.Learn(inc); err != nil {
			t.Fatalf("Learn: %v", err)
		}
	}
	if got := c.Index().Len(); got != perTeam*len(teams) {
		t.Fatalf("root store has %d entries, want %d", got, perTeam*len(teams))
	}
	sh, ok := vectordb.AsSharded(c.Index())
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	entries := map[string]int{}
	for _, st := range sh.NamespaceStats() {
		entries[st.Namespace] = st.Entries
	}
	for _, team := range teams {
		if got := entries[team]; got != perTeam {
			t.Fatalf("team %s namespace has %d entries, want %d", team, got, perTeam)
		}
	}

	query := e.corpus.Incidents[0].DiagnosticText()
	at := e.corpus.Incidents[perTeam*len(teams)].CreatedAt
	for _, team := range teams {
		hits, err := c.RetrieveIn(team, query, at, 5, false)
		if err != nil {
			t.Fatalf("RetrieveIn(%s): %v", team, err)
		}
		if len(hits) == 0 {
			t.Fatalf("RetrieveIn(%s) found nothing in a %d-entry namespace", team, perTeam)
		}
		for _, h := range hits {
			if h.Entry.Namespace != team {
				t.Fatalf("RetrieveIn(%s) leaked entry %s from namespace %q", team, h.Entry.ID, h.Entry.Namespace)
			}
		}
	}
	hits, err := c.RetrieveIn("Ghost", query, at, 5, false)
	if err != nil {
		t.Fatalf("RetrieveIn(unknown team): %v", err)
	}
	if len(hits) != 0 {
		t.Fatalf("unknown team retrieved %d hits, want 0", len(hits))
	}
	// Reads never create tenant state: a thousand distinct unknown teams
	// leave the per-namespace inventory exactly as it was.
	stats := sh.NamespaceStats()
	for i := 0; i < 1000; i++ {
		if _, err := c.RetrieveIn(fmt.Sprintf("Ghost-%04d", i), query, at, 5, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := sh.NamespaceStats(); !reflect.DeepEqual(got, stats) {
		t.Fatalf("unknown-team retrievals changed NamespaceStats:\n got %+v\nwant %+v", got, stats)
	}
	// The unscoped read is the operator view: it spans tenants.
	all, err := c.Retrieve(query, at, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, h := range all {
		seen[h.Entry.Namespace] = true
	}
	if !seen["Alpha"] || !seen["Beta"] {
		t.Fatalf("unscoped retrieval saw namespaces %v, want both tenants", seen)
	}
}

// TestMultiTenantCollectAttributesCost pins per-tenant cost accounting:
// a Collect for a tenant incident books its telemetry under "team/site"
// keys in the fleet meter (via the tenant-bound run context), while the
// stock handler fallback keeps tenants without bespoke handlers working.
func TestMultiTenantCollectAttributesCost(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{MultiTenant: true})
	inc := e.corpus.Incidents[0].Clone()
	inc.OwningTeam = "Alpha" // no bespoke handlers: falls back to the stock set
	if _, err := c.Collect(inc); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	found := false
	for key := range c.fleet.Meter().ByKey() {
		if strings.HasPrefix(key, "Alpha/") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no Alpha/-prefixed telemetry key in fleet meter %v", c.fleet.Meter().ByKey())
	}

	// Single-tenant mode never prefixes: the copilots share the corpus
	// fleet, so compare against a snapshot and check only the keys this
	// Collect charged.
	c2 := newCopilot(t, Config{})
	before := c2.fleet.Meter().ByKey()
	inc2 := e.corpus.Incidents[1].Clone()
	if _, err := c2.Collect(inc2); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	charged := 0
	for key, v := range c2.fleet.Meter().ByKey() {
		if v == before[key] {
			continue
		}
		charged++
		if strings.Contains(key, "/") {
			t.Fatalf("single-tenant Collect charged tenant-prefixed key %q", key)
		}
	}
	if charged == 0 {
		t.Fatal("single-tenant Collect charged no telemetry")
	}
}

// TestMultiTenantPredictScopes pins Predict's namespace scoping: a
// tenant whose namespace is empty predicts Unseen even though another
// tenant has rich history for the category in the shared pool.
func TestMultiTenantPredictScopes(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{MultiTenant: true})
	for i := 0; i < 40; i++ {
		inc := e.corpus.Incidents[i].Clone()
		inc.OwningTeam = "Alpha"
		if err := c.Learn(inc); err != nil {
			t.Fatalf("Learn: %v", err)
		}
	}
	probe := e.corpus.Incidents[40].Clone()
	probe.OwningTeam = "Beta"
	probe.Predicted = ""
	res, err := c.Predict(probe)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if !res.Unseen {
		t.Fatalf("empty-namespace tenant predicted %q from another tenant's history", res.Category)
	}
}
