package core_test

import (
	"testing"
	"time"

	isis "repro"
	"repro/internal/core"
)

// benchService builds a settled 12-member service (leaves of at most four)
// and a client of it, for the per-operation allocation benchmarks.
func benchService(b *testing.B) ([]*core.Agent, *isis.ServiceClient) {
	b.Helper()
	const n = 12
	_, procs := spawn(b, n+1)
	agents := buildService(b, procs, n, func(int) core.Config { return echoCfg(4, 2) })
	if isis.Await(ctxT(b), func() bool { return agents[0].Tree().TotalMembers() == n }) != nil {
		b.Fatal("tree never converged")
	}
	return agents, procs[n].NewServiceClient("svc", procs[0].ID())
}

// BenchmarkServiceRequest measures one leaf-routed request: the client's
// request to its cached leaf coordinator, the handler, the reply and the one
// cohort cast into the leaf.
func BenchmarkServiceRequest(b *testing.B) {
	_, client := benchService(b)
	ctx := within(b, time.Minute)
	payload := make([]byte, 64)
	if _, err := client.Request(ctx, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Request(ctx, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceBroadcast measures one whole-group broadcast: the client's
// request to the leader coordinator, the record encoded once, the stage
// frames down the tree, the leaf casts and the acknowledgements back up.
func BenchmarkServiceBroadcast(b *testing.B) {
	_, client := benchService(b)
	ctx := within(b, time.Minute)
	payload := make([]byte, 64)
	if _, err := client.Broadcast(ctx, payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Broadcast(ctx, payload); err != nil {
			b.Fatal(err)
		}
	}
}
