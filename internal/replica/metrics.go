package replica

import (
	"rslpa/internal/obs"
)

// Stable rebootstrap reason keys, used as the label values of
// rslpa_replica_rebootstraps_total so dashboards can tell a follower that
// keeps falling behind the journal horizon from one chasing a crash-
// looping writer.
const (
	reasonHorizon         = "horizon"          // 410 Gone: behind the journal horizon
	reasonEpochRegression = "epoch_regression" // writer restarted below our replay position
	reasonDivergence      = "divergence"       // feed batch is not the canonical batch for the next epoch
)

// replicaMetrics holds the follower's own instruments. The inner read
// service's families (rslpa_stream_*) are registered in the same registry
// by each replay generation — registration is get-or-create, so the owned
// histograms stay cumulative across re-bootstraps and the read-through
// closures repoint at the live generation. Nil (Options.Obs unset)
// disables instrumentation.
type replicaMetrics struct {
	pollSeconds    *obs.Histogram
	catchupBatches *obs.Histogram
	rebootstraps   *obs.CounterVec
}

func newReplicaMetrics(r *obs.Registry, f *Follower) *replicaMetrics {
	if r == nil {
		return nil
	}
	m := &replicaMetrics{
		pollSeconds: r.Histogram("rslpa_replica_poll_seconds",
			"Feed poll round-trip latency, including replay of the returned batches.",
			obs.LatencyBuckets),
		catchupBatches: r.Histogram("rslpa_replica_catchup_batches",
			"Batches replayed per feed poll (0 while caught up).",
			obs.CountBuckets),
		rebootstraps: r.CounterVec("rslpa_replica_rebootstraps_total",
			"Checkpoint re-bootstraps after the initial one, by reason.",
			"reason"),
	}
	r.GaugeFunc("rslpa_replica_lag_batches",
		"Writer batches not yet replayed (writer_epoch - follower_epoch, clamped at 0).",
		func() float64 { return float64(f.Stats().LagBatches) })
	r.GaugeFunc("rslpa_replica_writer_epoch",
		"Writer epoch as of the last successful feed poll.",
		func() float64 { return float64(f.writerEpoch.Load()) })
	r.GaugeFunc("rslpa_replica_follower_epoch",
		"Epoch of the currently published local snapshot.",
		func() float64 { return float64(f.Snapshot().Epoch()) })
	r.CounterFunc("rslpa_replica_catchup_total",
		"Batches replayed from the feed since the follower started.",
		func() float64 { return float64(f.catchupTotal.Load()) })
	return m
}
