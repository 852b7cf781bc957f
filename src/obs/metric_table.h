// The declared metric table: every metric src/ records, one row each, as
// X(handle, "name", kind). The row is the metric's only spelling: a
// recording site takes `obs::m::<handle>` (obs/metrics.h) and never names
// it, so its name, kind and bucket set are one decision made here. Kinds:
//   Counter, Gauge          -- as in obs/metrics.h;
//   CountHistogram          -- a Histogram over count_buckets();
//   TimeHistogram           -- a Histogram over time_buckets(), in seconds.
// A closed label family is a run of rows sharing a prefix up to its last
// '.', addressed by the caller's label index (obs::m::lp_status and the
// other Family constants in obs/metrics.h); its rows follow the order of
// the enum whose values index it. Open families, whose labels are runtime
// strings, declare only their prefix (RBVC_OBS_OPEN_FAMILIES).
//
// Adding a metric is one row here plus one row in the inventory of
// docs/OBSERVABILITY.md; metrics_test checks that the two name the same set.
#pragma once

// clang-format off
#define RBVC_OBS_METRIC_TABLE(X)                                                          \
  /* consensus: verify-by-recompute rejections, by consensus::VerifyReject */            \
  X(consensus_verify_rejects_bad_view_id, "consensus.verify_rejects.bad_view_id", Counter) \
  X(consensus_verify_rejects_malformed_view, "consensus.verify_rejects.malformed_view", Counter) \
  X(consensus_verify_rejects_rule_threw, "consensus.verify_rejects.rule_threw", Counter)  \
  X(consensus_verify_rejects_value_mismatch, "consensus.verify_rejects.value_mismatch", Counter) \
  /* exec */                                                                              \
  X(exec_jobs, "exec.jobs", Gauge)                                                        \
  X(exec_batches, "exec.batches", Counter)                                                \
  X(exec_tasks, "exec.tasks", Counter)                                                    \
  X(exec_tasks_skipped, "exec.tasks_skipped", Counter)                                    \
  X(exec_steals, "exec.steals", Counter)                                                  \
  X(exec_queue_depth, "exec.queue_depth", CountHistogram)                                 \
  X(exec_worker_busy_seconds, "exec.worker_busy_seconds", TimeHistogram)                  \
  /* fleet (fleet.shard.* live only in a worker's detached registry) */                   \
  X(fleet_shards_issued, "fleet.shards.issued", Counter)                                  \
  X(fleet_shards_completed, "fleet.shards.completed", Counter)                            \
  X(fleet_shards_reassigned, "fleet.shards.reassigned", Counter)                          \
  X(fleet_workers_spawned, "fleet.workers.spawned", Counter)                              \
  X(fleet_workers_deaths, "fleet.workers.deaths", Counter)                                \
  X(fleet_workers_restarts, "fleet.workers.restarts", Counter)                            \
  X(fleet_episodes_completed, "fleet.episodes.completed", Counter)                        \
  X(fleet_heartbeats, "fleet.heartbeats", Counter)                                        \
  X(fleet_failures_reported, "fleet.failures.reported", Counter)                          \
  X(fleet_merge_latency_us, "fleet.merge.latency_us", Gauge)                              \
  X(fleet_shard_episodes, "fleet.shard.episodes", Counter)                                \
  X(fleet_shard_wall_ms, "fleet.shard.wall_ms", Gauge)                                    \
  X(fleet_shard_episodes_per_s, "fleet.shard.episodes_per_s", Gauge)                      \
  /* geometry and delta* (method family by DeltaStarResult::Method) */                    \
  X(geom_hull_membership_lps, "geom.hull.membership_lps", Counter)                        \
  X(geom_hull_intersection_lps, "geom.hull.intersection_lps", Counter)                    \
  X(geom_hull_seconds, "geom.hull.seconds", TimeHistogram)                                \
  X(geom_workspace_subset_cache_hits, "geom.workspace.subset_cache.hits", Counter)        \
  X(geom_workspace_subset_cache_misses, "geom.workspace.subset_cache.misses", Counter)    \
  X(geom_delta_star_calls, "geom.delta_star.calls", Counter)                              \
  X(geom_delta_star_method_gamma_nonempty, "geom.delta_star.method.gamma_nonempty", Counter) \
  X(geom_delta_star_method_simplex_inradius, "geom.delta_star.method.simplex_inradius", Counter) \
  X(geom_delta_star_method_numerical, "geom.delta_star.method.numerical", Counter)        \
  X(geom_delta_star_seconds, "geom.delta_star.seconds", TimeHistogram)                    \
  X(geom_delta_star_cut_rounds, "geom.delta_star.cut_rounds", Counter)                    \
  X(geom_delta_star_cuts, "geom.delta_star.cuts", Counter)                                \
  X(geom_delta_star_gap_open, "geom.delta_star.gap_open", Counter)                        \
  X(geom_delta_star_master_rejected, "geom.delta_star.master_rejected", Counter)          \
  /* lp (status family by lp::Status) */                                                  \
  X(lp_solves, "lp.solves", Counter)                                                      \
  X(lp_pivots, "lp.pivots", Counter)                                                      \
  X(lp_status_optimal, "lp.status.optimal", Counter)                                      \
  X(lp_status_infeasible, "lp.status.infeasible", Counter)                                \
  X(lp_status_unbounded, "lp.status.unbounded", Counter)                                  \
  X(lp_status_iteration_limit, "lp.status.iteration-limit", Counter)                      \
  X(lp_seconds, "lp.seconds", TimeHistogram)                                              \
  /* mc */                                                                                \
  X(mc_runs, "mc.runs", Counter)                                                          \
  X(mc_states_explored, "mc.states.explored", Counter)                                    \
  X(mc_sleep_skips, "mc.sleep.skips", Counter)                                            \
  X(mc_sleep_blocked, "mc.sleep.blocked", Counter)                                        \
  X(mc_truncated_runs, "mc.truncated_runs", Counter)                                      \
  X(mc_violations, "mc.violations", Counter)                                              \
  X(mc_max_depth, "mc.max_depth", Gauge)                                                  \
  /* net */                                                                               \
  X(net_frames_sent, "net.frames_sent", Counter)                                          \
  X(net_frames_received, "net.frames_received", Counter)                                  \
  X(net_bytes_sent, "net.bytes_sent", Counter)                                            \
  X(net_bytes_received, "net.bytes_received", Counter)                                    \
  X(net_connects, "net.connects", Counter)                                                \
  X(net_reconnects, "net.reconnects", Counter)                                            \
  X(net_send_drops, "net.send_drops", Counter)                                            \
  X(net_handshake_timeouts, "net.handshake_timeouts", Counter)                            \
  X(net_send_timeout_hangups, "net.send_timeout_hangups", Counter)                        \
  X(net_wire_errors, "net.wire_errors", Counter)                                          \
  X(net_queue_depth, "net.queue_depth", CountHistogram)                                   \
  X(net_instances_decided, "net.instances_decided", Counter)                              \
  /* protocols */                                                                         \
  X(protocols_rbc_emits, "protocols.rbc.emits", Counter)                                  \
  X(protocols_rbc_echo_quorums, "protocols.rbc.echo_quorums", Counter)                    \
  X(protocols_rbc_ready_amplifications, "protocols.rbc.ready_amplifications", Counter)    \
  X(protocols_rbc_deliveries, "protocols.rbc.deliveries", Counter)                        \
  X(protocols_ds_chain_validations, "protocols.ds.chain_validations", Counter)            \
  X(protocols_ds_extractions, "protocols.ds.extractions", Counter)                        \
  X(protocols_ds_relays, "protocols.ds.relays", Counter)                                  \
  X(protocols_ds_decides, "protocols.ds.decides", Counter)                                \
  X(protocols_ds_decide_round, "protocols.ds.decide_round", CountHistogram)               \
  /* sim */                                                                               \
  X(sim_async_runs, "sim.async.runs", Counter)                                            \
  X(sim_async_messages_sent, "sim.async.messages_sent", Counter)                          \
  X(sim_async_messages_delivered, "sim.async.messages_delivered", Counter)                \
  X(sim_async_messages_undelivered, "sim.async.messages_undelivered", Counter)            \
  X(sim_async_scheduler_picks, "sim.async.scheduler_picks", Counter)                      \
  X(sim_async_queue_depth, "sim.async.queue_depth", CountHistogram)                       \
  X(sim_sync_runs, "sim.sync.runs", Counter)                                              \
  X(sim_sync_rounds, "sim.sync.rounds", Counter)                                          \
  X(sim_sync_messages_sent, "sim.sync.messages_sent", Counter)                            \
  X(sim_sync_round_messages, "sim.sync.round_messages", CountHistogram)                   \
  X(sim_signature_checks, "sim.signature_checks", Counter)                                \
  /* workload runners */                                                                  \
  X(workload_sync_episodes, "workload.sync.episodes", Counter)                            \
  X(workload_sync_episode_seconds, "workload.sync.episode_seconds", TimeHistogram)        \
  X(workload_sync_decide_rounds, "workload.sync.decide_rounds", CountHistogram)           \
  X(workload_sync_achieved_delta, "workload.sync.achieved_delta", Gauge)                  \
  X(workload_sync_delta_star_bound, "workload.sync.delta_star_bound", Gauge)              \
  X(workload_async_episodes, "workload.async.episodes", Counter)                          \
  X(workload_async_episode_seconds, "workload.async.episode_seconds", TimeHistogram)      \
  X(workload_async_decide_deliveries, "workload.async.decide_deliveries", CountHistogram) \
  X(workload_async_achieved_delta, "workload.async.achieved_delta", Gauge)                \
  X(workload_async_delta_star_bound, "workload.async.delta_star_bound", Gauge)            \
  X(workload_rbc_episodes, "workload.rbc.episodes", Counter)                              \
  X(workload_rbc_episode_seconds, "workload.rbc.episode_seconds", TimeHistogram)          \
  X(workload_ds_episodes, "workload.ds.episodes", Counter)                                \
  X(workload_ds_episode_seconds, "workload.ds.episode_seconds", TimeHistogram)

// Open families: labels are wire kinds, which a Byzantine strategy can
// forge, so each label is published by name through sanitize_label, once
// per engine run. X(handle, "prefix").
#define RBVC_OBS_OPEN_FAMILIES(X)              \
  X(sim_async_sent, "sim.async.sent.")         \
  X(sim_sync_sent, "sim.sync.sent.")
// clang-format on
