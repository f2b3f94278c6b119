package server_test

import (
	"fmt"
	"net/http/httptest"

	"orderopt/internal/planner"
	"orderopt/internal/server"
	"orderopt/internal/tpcr"
)

// ExampleClient is the serving layer's round trip: stand up the HTTP
// planning service over a reentrant planner, plan a statement through
// the client, and watch the second request return the plan the prepared
// statement kept.
// cmd/planserverd wires the same Server into a daemon with admission
// control and graceful drain.
func ExampleClient() {
	pl := planner.New(planner.DefaultConfig(tpcr.Schema()))
	ts := httptest.NewServer(server.New(server.Config{Planner: pl}))
	defer ts.Close()

	c := server.NewClient(ts.URL)
	sql := "select * from nation, region " +
		"where n_regionkey = r_regionkey order by n_name"

	first, err := c.Plan(sql)
	if err != nil {
		panic(err)
	}
	second, err := c.Plan(sql)
	if err != nil {
		panic(err)
	}
	fmt.Println(first.Source, first.Plan.Op)
	fmt.Println(second.Source, second.Cost == first.Cost)
	// Output:
	// cold Sort
	// cachehit true
}
