package dsms

import (
	"strconv"
	"time"

	"geostreams/internal/obs"
)

// Collect emits the server's telemetry in Prometheus exposition form. It is
// registered as the primary collector of the server's obs.Registry and
// backs GET /metrics.
//
// Families:
//
//	geostreams_uptime_seconds / geostreams_queries      server-level gauges
//	geostreams_hub_*{band=...}                          per-band routing
//	geostreams_hub_chunk_age_seconds{band=...}          ingest→hub freshness
//	geostreams_store_*{band=...}                        historical chunk store
//	geostreams_operator_*{query=,op=,pos=}              per-operator counters
//	geostreams_operator_latency_seconds{...}            per-chunk processing
//	geostreams_operator_chunk_age_seconds{...}          ingest→operator age
//	geostreams_delivery_*{query=...}                    delivery stage
//	geostreams_delivery_chunk_age_seconds{query=...}    end-to-end freshness
//	geostreams_wire_ingest_*                            GSP feed listener
//	geostreams_wire_subscribers{query=...}              live push subscriptions
//	geostreams_wire_egress_chunks_total{query=...}      chunks pushed over GSP
//	geostreams_wire_backpressure_dropped_total{query=}  credit-exhausted drops
//	geostreams_fanout_*{query=...}                      shared frame cache
//	geostreams_ws_*                                     WebSocket delivery hub
//	geostreams_ratelimit_*                              per-client token buckets
//	geostreams_auth_rejected_total{edge=...}            refused credentials
func (s *Server) Collect(e *obs.Exposition) {
	s.mu.Lock()
	hubs := make([]*hub, 0, len(s.hubs))
	for _, h := range s.hubs {
		hubs = append(hubs, h)
	}
	queries := make([]*Registered, 0, len(s.queries))
	for _, r := range s.queries {
		queries = append(queries, r)
	}
	started := s.started
	s.mu.Unlock()

	e.Gauge("geostreams_uptime_seconds",
		"Seconds since the DSMS server was created.",
		time.Since(started).Seconds())
	e.Gauge("geostreams_queries",
		"Number of currently registered continuous queries.",
		float64(len(queries)))
	e.Counter("geostreams_query_panics_total",
		"Query pipelines terminated by a recovered operator panic (the server kept serving).",
		float64(s.panics.Load()))
	e.Counter("geostreams_admission_rejected_total",
		"Query registrations refused by the -max-queries admission limit.",
		float64(s.rejected.Load()))
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	drainingV := 0.0
	if draining {
		drainingV = 1
	}
	e.Gauge("geostreams_draining",
		"1 while the server is draining after Shutdown, else 0.",
		drainingV)
	e.Gauge("geostreams_frame_age_slo_seconds",
		"Configured hub-to-delivery freshness budget (0 = no SLO).",
		time.Duration(s.frameAgeSLO.Load()).Seconds())

	snap := s.sharing.Snapshot()
	taps := 0
	for _, tr := range snap.Trunks {
		taps += tr.Taps
	}
	e.Gauge("geostreams_shared_trunks",
		"Shared subplan trunks currently running.",
		float64(len(snap.Trunks)))
	e.Gauge("geostreams_shared_taps",
		"Subscriber taps currently attached across all shared trunks.",
		float64(taps))
	e.Counter("geostreams_shared_trunks_created_total",
		"Shared trunks built since the server started.",
		float64(snap.Created))
	e.Counter("geostreams_shared_trunk_reuses_total",
		"Trunk acquisitions satisfied by an already-running trunk instead of a new pipeline.",
		float64(snap.Reused))
	e.Counter("geostreams_shared_trunk_panics_total",
		"Shared trunks torn down by a recovered operator panic (dependents ended cleanly).",
		float64(snap.Panicked))
	for _, tr := range snap.Trunks {
		sig := obs.L("sig", tr.Short)
		e.Gauge("geostreams_shared_trunk_refs",
			"References (mounts and parent trunks) held on this trunk.",
			float64(tr.Refs), sig)
		e.Counter("geostreams_shared_trunk_delivered_chunks_total",
			"Chunks fanned out to this trunk's taps.",
			float64(tr.Delivered), sig)
	}
	live := 0
	for _, ri := range snap.Routers {
		if ri.Live {
			live++
		}
	}
	e.Gauge("geostreams_cascade_routers",
		"Band routers (shared spatial-restriction stages) currently running.",
		float64(live))
	for _, ri := range snap.Routers {
		band := obs.L("band", ri.Band)
		if ri.Live {
			e.Gauge("geostreams_cascade_frontiers",
				"Query crop rects registered in this band's cascade index.",
				float64(ri.Frontiers), band)
		}
		e.Counter("geostreams_cascade_probes_total",
			"Data chunks probed against this band's cascade index.",
			float64(ri.Probes), band)
		e.Counter("geostreams_cascade_matches_total",
			"Chunk x query index matches summed over probes.",
			float64(ri.Matches), band)
		e.Counter("geostreams_cascade_crops_total",
			"Distinct crop chunks computed by the router.",
			float64(ri.Crops), band)
		e.Counter("geostreams_cascade_crop_shares_total",
			"Crop deliveries served by sharing an already-computed crop chunk.",
			float64(ri.CropShares), band)
		e.Counter("geostreams_cascade_filtered_chunks_total",
			"Data chunks dropped by the router because no registered rect intersects them.",
			float64(ri.Filtered), band)
		e.Counter("geostreams_cascade_route_seconds_total",
			"Wall time spent inside the routing stage (probe + crop + hand-off).",
			float64(ri.RouteNanos)/1e9, band)
	}

	for _, h := range hubs {
		band := obs.L("band", h.info.Band)
		hs := h.stats()
		e.Gauge("geostreams_hub_subscribers",
			"Query pipelines subscribed to this band hub.",
			float64(hs.Subscribers), band)
		e.Counter("geostreams_hub_delivered_chunks_total",
			"Chunks handed to subscriber pipelines by this hub.",
			float64(hs.Delivered), band)
		e.Counter("geostreams_hub_dropped_chunks_total",
			"Data chunks shed because a subscriber fell behind.",
			float64(hs.Dropped), band)
		e.Gauge("geostreams_hub_state",
			"Supervision state of the band's source: 0 live, 1 reconnecting, 2 dead.",
			float64(h.state.Load()), band)
		e.Counter("geostreams_source_reconnects_total",
			"Successful supervised-source reconnections for this band.",
			float64(hs.Reconnects), band)
		e.Histogram("geostreams_hub_chunk_age_seconds",
			"Seconds from instrument ingest to hub routing, per data chunk.",
			h.age.Snapshot(), band)
	}

	if h := s.histStore(); h != nil {
		for _, bs := range h.Snapshot() {
			band := obs.L("band", bs.Band)
			e.Gauge("geostreams_store_last_seq",
				"Highest durable per-band store sequence number.",
				float64(bs.LastSeq), band)
			e.Gauge("geostreams_store_oldest_seq",
				"Oldest store sequence still retained (0 = empty band).",
				float64(bs.OldestSeq), band)
			e.Gauge("geostreams_store_ring_chunks",
				"Chunks held in the in-memory history ring (memory-only bands, or after a disk write failure).",
				float64(bs.RingChunks), band)
			e.Gauge("geostreams_store_ring_bytes",
				"Encoded bytes held in the in-memory history ring.",
				float64(bs.RingBytes), band)
			e.Gauge("geostreams_store_segments",
				"On-disk segment-log files for this band.",
				float64(bs.Segments), band)
			e.Gauge("geostreams_store_disk_bytes",
				"Bytes in the band's segment log, buffered ones included.",
				float64(bs.DiskBytes), band)
			e.Gauge("geostreams_store_live_tails",
				"Replay tails currently attached to the live feed.",
				float64(bs.Tails), band)
			e.Counter("geostreams_store_appended_chunks_total",
				"Chunks durably sequenced into the band's store.",
				float64(bs.Appended), band)
			e.Counter("geostreams_store_delta_chunks_total",
				"Ring entries stored delta-encoded against the previous frame.",
				float64(bs.DeltaChunks), band)
			e.Counter("geostreams_store_raw_chunks_total",
				"Ring entries stored raw (keyframes and low-correlation frames).",
				float64(bs.RawChunks), band)
			e.Counter("geostreams_store_evicted_chunks_total",
				"Chunks evicted from the in-memory ring to bound it.",
				float64(bs.Evicted), band)
			e.Counter("geostreams_store_replayed_chunks_total",
				"Chunks served from history to replay tails.",
				float64(bs.Replayed), band)
			e.Counter("geostreams_store_tail_lags_total",
				"Live tails detached for lagging and re-based onto store replay.",
				float64(bs.TailLags), band)
			e.Counter("geostreams_store_truncated_resumes_total",
				"Replays refused because the cursor fell below the eviction horizon.",
				float64(bs.Truncated), band)
			e.Counter("geostreams_store_disk_errors_total",
				"Segment-log write failures (the ring took over the band's history).",
				float64(bs.DiskErrors), band)
		}
	}

	for _, r := range queries {
		q := obs.L("query", strconv.FormatInt(int64(r.ID), 10))
		for pos, st := range r.stats {
			lbl := []obs.Label{q,
				obs.L("op", st.Name),
				obs.L("pos", strconv.Itoa(pos)),
			}
			e.Counter("geostreams_operator_chunks_in_total",
				"Chunks consumed by the operator.",
				float64(st.ChunksIn.Load()), lbl...)
			e.Counter("geostreams_operator_chunks_out_total",
				"Chunks produced by the operator.",
				float64(st.ChunksOut.Load()), lbl...)
			e.Counter("geostreams_operator_points_in_total",
				"Lattice points / samples consumed by the operator.",
				float64(st.PointsIn.Load()), lbl...)
			e.Counter("geostreams_operator_points_out_total",
				"Lattice points / samples produced by the operator.",
				float64(st.PointsOut.Load()), lbl...)
			e.Gauge("geostreams_operator_buffered_points",
				"Points currently buffered in operator state.",
				float64(st.BufferedPoints()), lbl...)
			e.Gauge("geostreams_operator_peak_buffered_points",
				"High-water mark of buffered points (paper 3.1-3.3 space bounds).",
				float64(st.PeakBufferedPoints()), lbl...)
			e.Counter("geostreams_operator_busy_seconds_total",
				"Wall time spent processing chunks (includes downstream send).",
				st.BusyTime().Seconds(), lbl...)
			e.Counter("geostreams_operator_idle_seconds_total",
				"Wall time spent waiting for input.",
				st.IdleTime().Seconds(), lbl...)
			e.Gauge("geostreams_operator_queue_depth",
				"Chunks sitting in the operator's output channel right now.",
				float64(st.QueueDepth()), lbl...)
			e.Gauge("geostreams_operator_queue_capacity",
				"Capacity of the operator's output channel.",
				float64(st.QueueCap()), lbl...)
			e.Gauge("geostreams_operator_peak_queue_depth",
				"High-water mark of the operator's output channel occupancy.",
				float64(st.PeakQueueDepth()), lbl...)
			e.Histogram("geostreams_operator_latency_seconds",
				"Per-chunk processing latency (input receipt to output emit).",
				st.LatencySnapshot(), lbl...)
			e.Histogram("geostreams_operator_chunk_age_seconds",
				"Seconds from instrument ingest to the operator consuming a chunk.",
				st.AgeSnapshot(), lbl...)
		}

		ws := r.WireStats()
		e.Gauge("geostreams_wire_subscribers",
			"Push subscriptions currently attached to this query.",
			float64(ws.ActiveSubscribers), q)
		e.Counter("geostreams_wire_subscribers_total",
			"Push subscriptions ever attached to this query.",
			float64(ws.SubscribersTotal), q)
		e.Counter("geostreams_wire_egress_chunks_total",
			"Chunks enqueued to this query's push subscribers.",
			float64(ws.DeliveredChunks), q)
		e.Counter("geostreams_wire_backpressure_dropped_total",
			"Data chunks dropped because a push subscriber's credit was exhausted or its buffer full.",
			float64(ws.DroppedChunks), q)

		e.Counter("geostreams_frame_age_slo_burn_total",
			"Delivered data chunks older than the frame-age SLO budget.",
			float64(r.deliv.sloBurn.Load()), q)

		ds := r.DeliveryStats()
		e.Counter("geostreams_delivery_frames_total",
			"PNG frames published to this query since it registered (shared by every query on one product).",
			float64(ds.Frames), q)
		e.Counter("geostreams_delivery_frame_bytes_total",
			"Encoded PNG bytes published to this query since it registered.",
			float64(ds.FrameBytes), q)
		e.Counter("geostreams_delivery_series_points_total",
			"Time-series points appended to the client buffer.",
			float64(ds.SeriesPoints), q)
		e.Counter("geostreams_delivery_shed_frames_total",
			"Frames shed because the client polled too slowly.",
			float64(ds.ShedFrames), q)
		e.Histogram("geostreams_delivery_chunk_age_seconds",
			"End-to-end seconds from instrument ingest to the delivery stage.",
			r.deliv.age.Snapshot(), q)

		e.Gauge("geostreams_fanout_subscribers",
			"Fan-out subscriptions (WebSocket and in-process cursors) attached to this query's frame cache.",
			float64(r.frames.subs.Load()), q)
		e.Gauge("geostreams_fanout_ring_frames",
			"Frames currently retained in this query's shared frame ring.",
			float64(r.frames.ringLen()), q)
		e.Counter("geostreams_fanout_wakeups_total",
			"Targeted waiter wakeups on this query's frame hub (stays proportional to ready readers, not parked ones).",
			float64(r.frames.wakeups.Load()), q)
	}

	e.Gauge("geostreams_fanout_png_live",
		"Encoded PNG backings checked out of the frame pool across all queries.",
		float64(pngLive.Load()))

	wss := s.WSStats()
	e.Gauge("geostreams_ws_connections",
		"WebSocket delivery connections currently open.",
		float64(wss.ActiveConnections))
	e.Counter("geostreams_ws_connections_total",
		"WebSocket delivery connections ever accepted.",
		float64(wss.ConnectionsTotal))
	e.Counter("geostreams_ws_frames_total",
		"Frame messages pushed over WebSocket connections.",
		float64(wss.Frames))
	e.Counter("geostreams_ws_frame_bytes_total",
		"Bytes (header + shared PNG) pushed over WebSocket connections.",
		float64(wss.FrameBytes))
	e.Counter("geostreams_ws_pings_total",
		"Keep-alive pings sent to WebSocket peers.",
		float64(wss.Pings))
	e.Counter("geostreams_ws_pong_misses_total",
		"WebSocket connections dropped for missing their pong grace window.",
		float64(wss.PongMisses))

	if lim := s.rateLimiter(); lim != nil {
		rs := lim.Snapshot()
		e.Counter("geostreams_ratelimit_allowed_total",
			"Requests admitted by the per-client token buckets.",
			float64(rs.Allowed))
		e.Counter("geostreams_ratelimit_throttled_total",
			"Requests answered 429 because a client's bucket was empty.",
			float64(rs.Throttled))
		e.Gauge("geostreams_ratelimit_clients",
			"Client buckets currently tracked (idle buckets are swept).",
			float64(rs.Clients))
	}

	if s.authTokenValue() != "" {
		e.Counter("geostreams_auth_rejected_total",
			"HTTP API requests refused for a missing or invalid bearer token.",
			float64(s.authRejectedHTTP.Load()), obs.L("edge", "http"))
		e.Counter("geostreams_auth_rejected_total",
			"GSP ingest hellos refused for a missing or invalid token.",
			float64(s.authRejectedIngest.Load()), obs.L("edge", "ingest"))
	}

	if is := s.IngestStats(); is.Listening {
		e.Counter("geostreams_wire_ingest_connections_total",
			"GSP feed connections accepted by the ingest listener.",
			float64(is.ConnectionsTotal))
		e.Gauge("geostreams_wire_ingest_active_connections",
			"GSP feed connections currently open.",
			float64(is.ActiveConnections))
		e.Counter("geostreams_wire_ingest_rejected_total",
			"GSP feed connections rejected (bad hello, metadata drift, duplicate live band).",
			float64(is.Rejected))
		e.Counter("geostreams_wire_ingest_chunks_total",
			"Chunks decoded from GSP feed connections.",
			float64(is.Chunks))
		e.Counter("geostreams_wire_ingest_crc_errors_total",
			"GSP frames discarded for CRC mismatch across feed connections.",
			float64(is.CRCErrors))
		e.Counter("geostreams_wire_ingest_resyncs_total",
			"Times a feed reader scanned for the magic word after losing frame alignment.",
			float64(is.Resyncs))
		e.Counter("geostreams_wire_ingest_alloc_bytes_total",
			"Decode value-buffer bytes that missed the grid pool and were heap-allocated (zero-copy ingest holds this flat).",
			float64(is.AllocBytes))
	}
}
