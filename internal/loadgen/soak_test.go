package loadgen

import (
	"context"
	"testing"
	"time"
)

// TestSoakChaosZipf is the in-process version of `make perf`'s load run: a
// 3-shard cluster with a deliberately tiny gateway admission capacity,
// Zipf traffic from several closed-loop workers, and the builtin gate
// schedule (full 503 blackout, partial burst, partition) running
// underneath. It asserts the whole robustness story at once:
//
//   - zero unexpected client-visible failures — every fault was absorbed
//     by failover, quorum, retries, or an honest 429;
//   - overload shedding actually happened (client saw 429s) and the
//     client retried them away;
//   - shard breakers tripped during the chaos AND recovered by the end.
//
// Runs under -short and -race: ~4s of wall time, all loopback.
func TestSoakChaosZipf(t *testing.T) {
	const total = 4 * time.Second

	c, err := StartSelfCluster(SelfConfig{
		Shards:             3,
		Seed:               42,
		GatewayMaxInflight: 4,
		GatewayAdmitWait:   10 * time.Millisecond,
		GatewayAdmitQueue:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := New(Config{
		BaseURL:  c.URL,
		Seed:     42,
		Duration: total,
		Workers:  10,
		Corpus:   12,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.Setup(ctx); err != nil {
		t.Fatal(err)
	}

	chaosDone := make(chan error, 1)
	go func() {
		chaosDone <- RunSchedule(ctx, GateSchedule(total), c, t.Logf)
	}()

	rep, err := r.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-chaosDone; err != nil {
		t.Fatalf("chaos schedule: %v", err)
	}
	rep.FillCluster(c.Gateway())
	if testing.Verbose() {
		rep.Summary(testWriter{t})
	}

	if rep.Unexpected != 0 {
		t.Fatalf("unexpected failures: %d, samples: %v", rep.Unexpected, rep.UnexpectedSamples)
	}
	if rep.TotalOps() == 0 {
		t.Fatal("no ops completed")
	}
	if rep.Sheds() == 0 {
		t.Fatal("overload shedding never exercised: want client-visible 429s under a capacity-4 gateway")
	}
	if rep.Cluster.BreakerOpens == 0 {
		t.Fatalf("no breaker tripped during chaos: %+v", rep.Cluster)
	}
	if rep.Cluster.BreakerRecoveries == 0 {
		t.Fatalf("no breaker recovered after chaos: %+v", rep.Cluster)
	}
	if rep.Cluster.OpenBreakers != 0 {
		t.Fatalf("breakers still open after the clean tail: %+v", rep.Cluster)
	}
}

// testWriter adapts t.Logf to io.Writer for Report.Summary.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}
