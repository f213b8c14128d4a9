#include "federation/fsm.h"

#include <algorithm>

#include "assertions/parser.h"
#include "common/string_util.h"

namespace ooint {

namespace {

void AccumulateStats(IntegrationStats* total, const IntegrationStats& step) {
  total->pairs_checked += step.pairs_checked;
  total->pairs_enqueued += step.pairs_enqueued;
  total->pairs_skipped_by_labels += step.pairs_skipped_by_labels;
  total->sibling_pairs_removed += step.sibling_pairs_removed;
  total->dfs_steps += step.dfs_steps;
  total->classes_merged += step.classes_merged;
  total->isa_links_inserted += step.isa_links_inserted;
  total->isa_links_suppressed += step.isa_links_suppressed;
  total->rules_generated += step.rules_generated;
  total->cardinality_conflicts_resolved +=
      step.cardinality_conflicts_resolved;
}

/// Rewrites every O-term class name of `rule` through `rename`.
Rule RewriteRuleClasses(
    Rule rule, const std::function<std::string(const std::string&)>& rename) {
  for (Literal& literal : rule.head) {
    if (literal.kind == Literal::Kind::kOTerm) {
      literal.oterm.class_name = rename(literal.oterm.class_name);
    }
  }
  for (Literal& literal : rule.body) {
    if (literal.kind == Literal::Kind::kOTerm) {
      literal.oterm.class_name = rename(literal.oterm.class_name);
    }
  }
  return rule;
}

}  // namespace

Status Fsm::RegisterAgent(std::unique_ptr<FsmAgent> agent) {
  if (FindAgent(agent->schema().name()) != nullptr) {
    return Status::AlreadyExists(
        StrCat("an agent already exports schema '", agent->schema().name(),
               "'"));
  }
  agents_.push_back(std::move(agent));
  return Status::OK();
}

FsmAgent* Fsm::FindAgent(const std::string& schema_name) const {
  for (const std::unique_ptr<FsmAgent>& agent : agents_) {
    if (agent->schema().name() == schema_name) return agent.get();
  }
  return nullptr;
}

Status Fsm::DeclareAssertions(const std::string& text) {
  Result<AssertionSet> parsed = AssertionParser::Parse(text);
  if (!parsed.ok()) return parsed.status();
  for (const Assertion& assertion : parsed.value().assertions()) {
    assertions_.push_back(assertion);
  }
  return Status::OK();
}

Status Fsm::AddAssertion(Assertion assertion) {
  assertions_.push_back(std::move(assertion));
  return Status::OK();
}

Result<std::vector<ConsistencyFinding>> Fsm::CheckAllConsistency() const {
  std::vector<ConsistencyFinding> findings;
  for (size_t i = 0; i < agents_.size(); ++i) {
    for (size_t j = i + 1; j < agents_.size(); ++j) {
      const Schema& s1 = agents_[i]->schema();
      const Schema& s2 = agents_[j]->schema();
      AssertionSet pair_set;
      for (const Assertion& assertion : assertions_) {
        const std::string& lhs = assertion.lhs.front().schema;
        const std::string& rhs = assertion.rhs.schema;
        const bool spans = (lhs == s1.name() && rhs == s2.name()) ||
                           (lhs == s2.name() && rhs == s1.name());
        if (!spans) continue;
        const Status added = pair_set.Add(assertion);
        if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
          return added;
        }
      }
      if (pair_set.size() == 0) continue;
      const std::vector<ConsistencyFinding> pair_findings =
          CheckConsistency(s1, s2, pair_set);
      findings.insert(findings.end(), pair_findings.begin(),
                      pair_findings.end());
    }
  }
  return findings;
}

Fsm::View Fsm::MakeLeafView(const FsmAgent& agent) {
  View view;
  view.schema = std::make_unique<Schema>(agent.schema());
  const std::string& schema_name = agent.schema().name();
  for (const ClassDef& class_def : agent.schema().classes()) {
    const std::string key = StrCat(schema_name, ".", class_def.name());
    view.class_map[key] = class_def.name();
    view.ground_sources[class_def.name()] = {
        {schema_name, class_def.name()}};
    for (const Attribute& attr : class_def.attributes()) {
      view.attr_map[StrCat(key, ".", attr.name)] = attr.name;
    }
    for (const AggregationFunction& fn : class_def.aggregations()) {
      view.attr_map[StrCat(key, ".", fn.name)] = fn.name;
    }
  }
  return view;
}

bool Fsm::RewriteAssertion(const View& v1, const View& v2,
                           const Assertion& original,
                           Assertion* rewritten) const {
  // Which view does a ground class live in? 0 = neither.
  auto view_of = [&](const ClassRef& ref) -> int {
    const std::string key = ref.ToString();
    if (v1.class_map.count(key) != 0) return 1;
    if (v2.class_map.count(key) != 0) return 2;
    return 0;
  };
  auto map_ref = [&](const ClassRef& ref) -> ClassRef {
    const std::string key = ref.ToString();
    auto it1 = v1.class_map.find(key);
    if (it1 != v1.class_map.end()) {
      return {v1.schema->name(), it1->second};
    }
    return {v2.schema->name(), v2.class_map.at(key)};
  };
  auto map_path = [&](const Path& path) -> Path {
    const ClassRef ref{path.schema(), path.class_name()};
    if (view_of(ref) == 0) return path;
    const View& view = (view_of(ref) == 1) ? v1 : v2;
    const ClassRef mapped = map_ref(ref);
    std::vector<std::string> components = path.components();
    if (!components.empty()) {
      auto it = view.attr_map.find(
          StrCat(ref.ToString(), ".", components.front()));
      if (it != view.attr_map.end()) components.front() = it->second;
    }
    return Path(mapped.schema, mapped.class_name, std::move(components),
                path.name_ref());
  };

  int lhs_view = 0;
  for (const ClassRef& c : original.lhs) {
    const int v = view_of(c);
    if (v == 0) return false;  // references a schema outside these views
    if (lhs_view == 0) lhs_view = v;
    if (v != lhs_view) return false;  // derivation lhs split across views
  }
  const int rhs_view = view_of(original.rhs);
  if (rhs_view == 0 || rhs_view == lhs_view) {
    // Not applicable here, or already applied in an earlier round.
    return false;
  }

  rewritten->lhs.clear();
  for (const ClassRef& c : original.lhs) {
    rewritten->lhs.push_back(map_ref(c));
  }
  rewritten->rel = original.rel;
  rewritten->rhs = map_ref(original.rhs);
  rewritten->attr_corrs = original.attr_corrs;
  for (AttributeCorrespondence& ac : rewritten->attr_corrs) {
    ac.lhs = map_path(ac.lhs);
    ac.rhs = map_path(ac.rhs);
    if (ac.with.has_value()) ac.with->attribute = map_path(ac.with->attribute);
  }
  rewritten->agg_corrs = original.agg_corrs;
  for (AggCorrespondence& gc : rewritten->agg_corrs) {
    gc.lhs = map_path(gc.lhs);
    gc.rhs = map_path(gc.rhs);
  }
  rewritten->value_corrs = original.value_corrs;
  for (ValueCorrespondence& vc : rewritten->value_corrs) {
    vc.lhs = map_path(vc.lhs);
    vc.rhs = map_path(vc.rhs);
    vc.side = (vc.lhs.schema() == rewritten->lhs.front().schema) ? 1 : 2;
  }
  return true;
}

Result<Fsm::View> Fsm::IntegrateViews(View v1, View v2,
                                      IntegrationStats* stats,
                                      IntegratedSchema* last_round) {
  AssertionSet set;
  for (const Assertion& original : assertions_) {
    Assertion rewritten;
    if (!RewriteAssertion(v1, v2, original, &rewritten)) continue;
    const Status added = set.Add(std::move(rewritten));
    if (!added.ok() && added.code() != StatusCode::kAlreadyExists) {
      return added;
    }
  }
  OOINT_RETURN_IF_ERROR(set.Validate(*v1.schema, *v2.schema));

  Result<IntegrationOutcome> outcome =
      Integrator::Integrate(*v1.schema, *v2.schema, set, &aifs_);
  if (!outcome.ok()) return outcome.status();
  AccumulateStats(stats, outcome.value().stats);
  IntegratedSchema& integrated = outcome.value().schema;

  View merged;
  Result<Schema> lowered = integrated.ToSchema();
  if (!lowered.ok()) return lowered.status();
  merged.schema = std::make_unique<Schema>(std::move(lowered).value());

  // Compose the class maps.
  for (const View* view : {&v1, &v2}) {
    for (const auto& [ground, view_class] : view->class_map) {
      const std::string name =
          integrated.NameOf({view->schema->name(), view_class});
      if (!name.empty()) merged.class_map[ground] = name;
    }
  }
  // Compose the attribute maps via the integrated attributes' sources.
  std::map<std::string, std::string> intermediate_attr;  // "S.C.a" -> name
  for (const IntegratedClass& c : integrated.classes()) {
    for (const IntegratedAttribute& a : c.attributes) {
      for (const Path& source : a.sources) {
        intermediate_attr[StrCat(source.schema(), ".", source.class_name(),
                                 ".", source.leaf())] = a.name;
      }
    }
    for (const IntegratedAggregation& g : c.aggregations) {
      for (const Path& source : g.sources) {
        intermediate_attr[StrCat(source.schema(), ".", source.class_name(),
                                 ".", source.leaf())] = g.name;
      }
    }
  }
  for (const View* view : {&v1, &v2}) {
    for (const auto& [ground_attr, view_attr] : view->attr_map) {
      // ground_attr = "S.C.a"; find the view class to build the
      // intermediate key.
      const size_t last_dot = ground_attr.rfind('.');
      const std::string ground_class = ground_attr.substr(0, last_dot);
      auto cls = view->class_map.find(ground_class);
      if (cls == view->class_map.end()) continue;
      auto it = intermediate_attr.find(StrCat(view->schema->name(), ".",
                                              cls->second, ".", view_attr));
      if (it != intermediate_attr.end()) {
        merged.attr_map[ground_attr] = it->second;
      }
    }
  }
  // Expand ground sources.
  for (const IntegratedClass& c : integrated.classes()) {
    std::vector<ClassRef>& ground = merged.ground_sources[c.name];
    for (const ClassRef& source : c.sources) {
      const View* view =
          (source.schema == v1.schema->name()) ? &v1 : &v2;
      auto it = view->ground_sources.find(source.class_name);
      if (it == view->ground_sources.end()) continue;
      ground.insert(ground.end(), it->second.begin(), it->second.end());
    }
  }
  // Carry and extend the rules.
  for (const View* view : {&v1, &v2}) {
    const std::string view_name = view->schema->name();
    for (const Rule& rule : view->rules) {
      merged.rules.push_back(RewriteRuleClasses(
          rule, [&](const std::string& class_name) {
            const std::string mapped =
                integrated.NameOf({view_name, class_name});
            return mapped.empty() ? class_name : mapped;
          }));
    }
  }
  for (const Rule& rule : integrated.rules()) {
    merged.rules.push_back(rule);
  }
  *last_round = std::move(integrated);
  return merged;
}

Result<GlobalSchema> Fsm::IntegrateAll(Strategy strategy) {
  if (agents_.empty()) {
    return Status::FailedPrecondition("no agents registered");
  }
  std::vector<View> views;
  views.reserve(agents_.size());
  for (const std::unique_ptr<FsmAgent>& agent : agents_) {
    views.push_back(MakeLeafView(*agent));
  }

  GlobalSchema global;
  if (views.size() == 1) {
    global.schema = *views.front().schema;
    global.ground_sources = views.front().ground_sources;
    return global;
  }

  switch (strategy) {
    case Strategy::kAccumulation: {
      // Fig. 2(a): fold one schema at a time into the running result.
      View acc = std::move(views.front());
      for (size_t i = 1; i < views.size(); ++i) {
        Result<View> next =
            IntegrateViews(std::move(acc), std::move(views[i]),
                           &global.total_stats, &global.last_round);
        if (!next.ok()) return next.status();
        acc = std::move(next).value();
        ++global.rounds;
      }
      views.clear();
      views.push_back(std::move(acc));
      break;
    }
    case Strategy::kBalanced: {
      // Fig. 2(b): integrate pairs level by level.
      while (views.size() > 1) {
        std::vector<View> next_level;
        for (size_t i = 0; i + 1 < views.size(); i += 2) {
          Result<View> merged =
              IntegrateViews(std::move(views[i]), std::move(views[i + 1]),
                             &global.total_stats, &global.last_round);
          if (!merged.ok()) return merged.status();
          next_level.push_back(std::move(merged).value());
          ++global.rounds;
        }
        if (views.size() % 2 == 1) {
          next_level.push_back(std::move(views.back()));
        }
        views = std::move(next_level);
      }
      break;
    }
  }

  View& final_view = views.front();
  global.schema = *final_view.schema;
  global.ground_sources = final_view.ground_sources;
  global.rules = std::move(final_view.rules);
  return global;
}

Status Fsm::ConfigureEvaluator(Evaluator* evaluator,
                               const GlobalSchema& global,
                               bool evaluate) const {
  for (const auto& [concept_name, sources] : global.ground_sources) {
    for (const ClassRef& source : sources) {
      OOINT_RETURN_IF_ERROR(evaluator->BindConcept(
          concept_name, source.schema, source.class_name));
    }
  }
  for (const Rule& rule : global.rules) {
    const Status added = evaluator->AddRule(rule);
    if (!added.ok() && added.code() != StatusCode::kUnsupported) {
      return added;
    }
    // Unsupported rules (disjunctive heads) stay documentation-only.
  }
  evaluator->SetDataMappings(&mappings_);
  if (!evaluate) return Status::OK();
  return evaluator->Evaluate();
}

Result<std::unique_ptr<Evaluator>> Fsm::MakeEvaluator(
    const GlobalSchema& global) const {
  auto evaluator = std::make_unique<Evaluator>();
  for (const std::unique_ptr<FsmAgent>& agent : agents_) {
    evaluator->AddSource(agent->schema().name(), &agent->store());
  }
  OOINT_RETURN_IF_ERROR(ConfigureEvaluator(evaluator.get(), global));
  return evaluator;
}

Result<FederatedEvaluator> Fsm::MakeFederatedEvaluator(
    const GlobalSchema& global, const FederationOptions& options) const {
  if (options.query_deadline_ms < 0) {
    return Status::InvalidArgument(
        StrCat("query_deadline_ms must be >= 0 (or kNoDeadline), got ",
               options.query_deadline_ms));
  }
  if (options.admission.max_concurrent < 0 ||
      options.admission.max_queue_depth < 0 ||
      options.admission.queue_wait_deadline_ms < 0) {
    return Status::InvalidArgument(
        "admission policy values must be non-negative");
  }
  FederatedEvaluator fed;
  fed.evaluator = std::make_unique<Evaluator>();
  fed.evaluator->set_segment_cache(segments_);
  fed.evaluator->set_failure_policy(options.failure_policy);
  if (options.query_deadline_ms != CancelToken::kNoDeadline &&
      options.query_mode != QueryMode::kDemandDriven) {
    // Materialized mode runs its one big fixpoint here, at build time;
    // the deadline bounds that run. Demand-driven clients instead mint
    // a fresh token per query (FsmClient::Demand).
    fed.evaluator->set_cancel_token(
        CancelToken::WithBudget(options.query_deadline_ms));
  }
  if (options.num_threads > 1) {
    fed.evaluator->set_thread_pool(
        std::make_shared<ThreadPool>(options.num_threads));
  }
  for (const std::unique_ptr<FsmAgent>& agent : agents_) {
    auto connection = std::make_unique<AgentConnection>(
        agent->schema().name(), &agent->store(), options.retry,
        options.breaker, options.injector);
    fed.connections.push_back(connection.get());
    fed.evaluator->AddSource(agent->schema().name(), std::move(connection));
  }
  // Demand-driven clients run per-query fixpoints; live-update clients
  // let the incremental engine's adoption do the (counted) initial load
  // — either way the eager fixpoint here would be wasted work and a
  // second pass over every agent's fault schedule.
  OOINT_RETURN_IF_ERROR(ConfigureEvaluator(
      fed.evaluator.get(), global,
      /*evaluate=*/options.query_mode != QueryMode::kDemandDriven &&
          !options.live_updates));
  return fed;
}

}  // namespace ooint
