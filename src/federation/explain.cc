#include "federation/explain.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "rules/rule_graph.h"

namespace ooint {

std::string QueryPlan::ToString() const {
  std::string out = StrCat("plan for ", concept_name, " {\n");
  for (const std::string& concept_ref : concepts) {
    out += StrCat("  concept ", concept_ref, "\n");
  }
  for (const ClassRef& scan : ground_scans) {
    out += StrCat("  scan ", scan.ToString(), "\n");
  }
  for (size_t rule : rules) {
    out += StrCat("  rule #", rule, "\n");
  }
  out += StrCat("  agents: ", Join(agents, ", "), "\n");
  if (!pruned_agents.empty()) {
    out += StrCat("  relevance-pruned agents (never contacted): ",
                  Join(pruned_agents, ", "), "\n");
  }
  if (demand_mode) {
    out += magic_applied
               ? StrCat("  demand-driven: magic rewrite, adornment [",
                        goal_adornment, "]\n")
               : StrCat("  demand-driven: full evaluation fallback (",
                        fallback_reason, ")\n");
  }
  if (num_threads > 1) {
    out += StrCat("  parallel: threads=", num_threads,
                  " fetch_overlap_saved_ms=", fetch_overlap_saved_ms, "\n");
  }
  if (query_deadline_ms != CancelToken::kNoDeadline) {
    out += StrCat("  deadline: ", query_deadline_ms, "ms per query\n");
  }
  if (admission_enabled) {
    out += StrCat("  admission: limit=", admission_policy.max_concurrent,
                  " queue_depth=", admission_policy.max_queue_depth,
                  " admitted=", admission.admitted,
                  " shed_full=", admission.rejected_full,
                  " shed_wait=", admission.rejected_wait,
                  " queued_now=", admission.queued,
                  " max_queued=", admission.max_queued,
                  " wait_ms=", admission.total_wait_ms, "\n");
  }
  if (live_updates || delta_batches > 0) {
    out += StrCat("  live-updates: batches=", delta_batches,
                  " facts+=", maintenance.facts_inserted,
                  " facts-=", maintenance.facts_deleted,
                  " overdeleted=", maintenance.overdeleted,
                  " rederived=", maintenance.rederived,
                  " rounds=", maintenance.rounds,
                  " cache_retained=", cache_entries_retained,
                  " cache_evicted=", cache_entries_evicted, "\n");
  }
  // Demand connections always coalesce, so they always report serving.
  if (demand_mode || serving.cursors_opened > 0) {
    out += StrCat("  serving: cursors=", serving.cursors_opened,
                  " expired=", serving.cursors_expired,
                  " pages=", serving.pages_served,
                  " rows=", serving.rows_streamed,
                  " heap_evictions=", serving.heap_evictions,
                  " coalesce_hits=", serving.coalesce_hits,
                  " coalesce_leaders=", serving.coalesce_leaders, "\n");
  }
  if (counters.present) {
    const Evaluator::Stats& stats = counters.stats;
    out += StrCat("  counters: base_facts=", stats.base_facts,
                  " derived=", stats.derived_facts,
                  " extents_fetched=", stats.extents_fetched,
                  " segment_reused=", stats.base_segments_reused,
                  " join_probes=", stats.index_probes);
    if (demand_mode) {
      out += StrCat(" cache_hits=", counters.cache_hits,
                    counters.from_cache ? " (answered from cache)" : "");
    }
    out += "\n";
    out += StrCat("  join kernels: cursor_steps=", stats.cursor_steps,
                  " merge_steps=", stats.merge_steps,
                  " gallop_steps=", stats.gallop_steps,
                  " plan_reorders=", stats.plan_reorders, "\n");
  }
  if (!skipped_agents.empty()) {
    out += StrCat("  DEGRADED: skipped ", Join(skipped_agents, ", "),
                  "; incomplete ", Join(incomplete_concepts, ", "), "\n");
  }
  if (deadline_truncated) {
    out += StrCat("  DEADLINE-TRUNCATED (sound subset): ",
                  Join(truncated_concepts, ", "), "\n");
  }
  out += "}";
  return out;
}

void QueryPlan::MarkDegraded(const DegradedInfo& degraded) {
  if (!degraded.degraded()) return;
  for (const std::string& agent : agents) {
    if (degraded.SkippedAgentNamed(agent)) skipped_agents.push_back(agent);
  }
  for (const std::string& concept_ref : concepts) {
    if (std::find(degraded.incomplete_concepts.begin(),
                  degraded.incomplete_concepts.end(),
                  concept_ref) != degraded.incomplete_concepts.end()) {
      incomplete_concepts.push_back(concept_ref);
    }
    if (std::find(degraded.truncated_concepts.begin(),
                  degraded.truncated_concepts.end(),
                  concept_ref) != degraded.truncated_concepts.end()) {
      truncated_concepts.push_back(concept_ref);
    }
  }
  deadline_truncated = !truncated_concepts.empty();
}

Result<QueryPlan> ExplainQuery(const GlobalSchema& global,
                               const std::string& concept_name,
                               const DegradedInfo* degraded) {
  QueryPlan plan;
  plan.concept_name = concept_name;
  // The goal's dependency closure over the rules the evaluator runs: a
  // documentation-only rule adds no rule, concept or scan to the plan.
  const RuleGraph graph(global.rules);
  plan.concepts = graph.Closure(concept_name);
  std::set<size_t> rule_set;
  std::set<std::string> agent_set;
  for (const std::string& concept_ref : plan.concepts) {
    const std::vector<size_t>& defining = graph.Defining(concept_ref);
    rule_set.insert(defining.begin(), defining.end());
    auto it = global.ground_sources.find(concept_ref);
    if (it == global.ground_sources.end()) continue;
    for (const ClassRef& source : it->second) {
      plan.ground_scans.push_back(source);
      agent_set.insert(source.schema);
    }
  }
  plan.rules.assign(rule_set.begin(), rule_set.end());
  plan.agents.assign(agent_set.begin(), agent_set.end());

  // Agents with ground sources entirely outside the plan: relevance
  // pruning guarantees a demand-driven run of this query never contacts
  // them.
  std::set<std::string> all_agents;
  for (const auto& [name, sources] : global.ground_sources) {
    (void)name;
    for (const ClassRef& source : sources) all_agents.insert(source.schema);
  }
  for (const std::string& agent : all_agents) {
    if (!agent_set.count(agent)) plan.pruned_agents.push_back(agent);
  }
  if (degraded != nullptr) plan.MarkDegraded(*degraded);
  return plan;
}

}  // namespace ooint
