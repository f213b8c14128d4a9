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
  AssertionSet declared = assertions_;
  for (const Assertion& assertion : parsed.value().assertions()) {
    OOINT_RETURN_IF_ERROR(declared.Add(assertion));
  }
  assertions_ = std::move(declared);
  return Status::OK();
}

Status Fsm::AddAssertion(Assertion assertion) {
  return assertions_.Add(std::move(assertion));
}

Result<std::vector<ConsistencyFinding>> Fsm::CheckAllConsistency() const {
  std::vector<ConsistencyFinding> findings;
  for (size_t i = 0; i < agents_.size(); ++i) {
    for (size_t j = i + 1; j < agents_.size(); ++j) {
      const Schema& s1 = agents_[i]->schema();
      const Schema& s2 = agents_[j]->schema();
      AssertionSet pair_set;
      for (const Assertion& assertion : assertions_.assertions()) {
        const std::string& lhs = assertion.lhs.front().schema;
        const std::string& rhs = assertion.rhs.schema;
        const bool spans = (lhs == s1.name() && rhs == s2.name()) ||
                           (lhs == s2.name() && rhs == s1.name());
        if (!spans) continue;
        OOINT_RETURN_IF_ERROR(pair_set.Add(assertion));
      }
      if (pair_set.size() == 0) continue;
      // CheckConsistency numbers classes by id: every class must resolve.
      OOINT_RETURN_IF_ERROR(pair_set.Validate(s1, s2));
      const std::vector<ConsistencyFinding> pair_findings =
          CheckConsistency(s1, s2, pair_set);
      findings.insert(findings.end(), pair_findings.begin(),
                      pair_findings.end());
    }
  }
  return findings;
}

ClassId Fsm::View::MapClass(size_t agent_index, ClassId id) const {
  if (leaf()) return agent_index == agent ? id : kInvalidClassId;
  if (agent_index >= classes.size()) return kInvalidClassId;
  const std::vector<MappedClass>& mapped = classes[agent_index];
  return static_cast<size_t>(id) < mapped.size() ? mapped[id].id
                                                 : kInvalidClassId;
}

Fsm::AgentClass Fsm::ResolveAgentClass(const std::string& schema_name,
                                       const std::string& class_name) const {
  for (size_t i = 0; i < agents_.size(); ++i) {
    const Schema& schema = agents_[i]->schema();
    if (schema.name() == schema_name) {
      return {i, schema.FindClass(class_name)};
    }
  }
  return {};
}

namespace {

/// The name of attribute slot `slot` of `class_def`: its attributes,
/// then its aggregation functions.
const std::string& SlotName(const ClassDef& class_def, size_t slot) {
  const size_t attrs = class_def.attributes().size();
  return slot < attrs ? class_def.attributes()[slot].name
                      : class_def.aggregations()[slot - attrs].name;
}

/// The first slot of `class_def` named `name`; npos when none is.
size_t SlotOf(const ClassDef& class_def, const std::string& name) {
  const size_t slots =
      class_def.attributes().size() + class_def.aggregations().size();
  for (size_t slot = 0; slot < slots; ++slot) {
    if (SlotName(class_def, slot) == name) return slot;
  }
  return std::string::npos;
}

/// "S.c" or "(S.c, S.d)" -> "S2.u", naming an assertion in errors.
std::string AssertionHead(const Assertion& assertion) {
  std::vector<std::string> lhs;
  lhs.reserve(assertion.lhs.size());
  for (const ClassRef& c : assertion.lhs) lhs.push_back(c.ToString());
  const std::string joined = Join(lhs, ", ");
  return StrCat(lhs.size() == 1 ? joined : StrCat("(", joined, ")"), " ",
                SetRelName(assertion.rel), " ", assertion.rhs.ToString());
}

}  // namespace

bool Fsm::RewriteAssertion(const View& v1, const View& v2,
                           const Assertion& original,
                           const Grounding& grounding,
                           Assertion* rewritten) const {
  // Which view does an agent class live in? 0 = neither.
  auto view_of = [&](const AgentClass& c) -> int {
    if (c.id == kInvalidClassId) return 0;
    if (v1.MapClass(c.agent, c.id) != kInvalidClassId) return 1;
    if (v2.MapClass(c.agent, c.id) != kInvalidClassId) return 2;
    return 0;
  };
  int lhs_view = 0;
  for (const AgentClass& c : grounding.lhs) {
    const int v = view_of(c);
    if (v == 0) return false;  // references a schema outside these views
    if (lhs_view == 0) lhs_view = v;
    if (v != lhs_view) return false;  // derivation lhs split across views
  }
  const int rhs_view = view_of(grounding.rhs);
  if (rhs_view == 0 || rhs_view == lhs_view) {
    // Not applicable here, or already applied in an earlier round.
    return false;
  }

  // A leaf's names are its agent's, so only a round view renames.
  auto map_ref = [&](const ClassRef& ref, const AgentClass& c) -> ClassRef {
    const View& view = view_of(c) == 1 ? v1 : v2;
    if (view.leaf()) return ref;
    return {view.schema->name(),
            view.schema->class_def(view.MapClass(c.agent, c.id)).name()};
  };
  auto map_path = [&](const Path& path) -> Path {
    if (v1.leaf() && v2.leaf()) return path;
    const AgentClass c = ResolveAgentClass(path.schema(), path.class_name());
    const int v = view_of(c);
    if (v == 0) return path;
    const View& view = v == 1 ? v1 : v2;
    if (view.leaf()) return path;
    const MappedClass& mapped = view.classes[c.agent][c.id];
    std::vector<std::string> components = path.components();
    if (!components.empty()) {
      const size_t slot = SlotOf(
          agents_[c.agent]->schema().class_def(c.id), components.front());
      if (slot != std::string::npos && !mapped.attrs[slot].empty()) {
        components.front() = mapped.attrs[slot];
      }
    }
    return Path(view.schema->name(),
                view.schema->class_def(mapped.id).name(),
                std::move(components), path.name_ref());
  };

  rewritten->lhs.clear();
  for (size_t i = 0; i < original.lhs.size(); ++i) {
    rewritten->lhs.push_back(map_ref(original.lhs[i], grounding.lhs[i]));
  }
  rewritten->rel = original.rel;
  rewritten->rhs = map_ref(original.rhs, grounding.rhs);
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

Result<Fsm::View> Fsm::IntegrateViews(View v1, View v2, bool last,
                                      std::vector<Grounding>* groundings,
                                      IntegrationStats* stats,
                                      IntegratedSchema* last_round) {
  AssertionSet set;
  for (size_t i = 0; i < assertions_.size(); ++i) {
    Grounding& grounding = (*groundings)[i];
    Assertion rewritten;
    if (!RewriteAssertion(v1, v2, assertions()[i], grounding, &rewritten)) {
      continue;
    }
    grounding.applied = true;
    // Declared pairs are distinct, but two of them can meet on one pair
    // of views once an earlier round merged their classes (a ≡ b, then
    // b ≡ c and a ≡ c): the first one declared relates the pair.
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
  OOINT_ASSIGN_OR_RETURN(Schema lowered, integrated.ToSchema());
  merged.lowered = std::make_unique<Schema>(std::move(lowered));
  merged.schema = merged.lowered.get();

  // Ground sources: each integrated class (= lowered class id) collects
  // the agent classes behind its sources, in source order.
  auto side_of = [&](const std::string& schema_name) -> const View& {
    return schema_name == v1.schema->name() ? v1 : v2;
  };
  merged.ground_sources.resize(integrated.classes().size());
  for (size_t c = 0; c < integrated.classes().size(); ++c) {
    std::vector<ClassRef>& ground = merged.ground_sources[c];
    for (const ClassRef& source : integrated.classes()[c].sources) {
      const View& view = side_of(source.schema);
      if (view.leaf()) {
        ground.push_back({view.schema->name(), source.class_name});
        continue;
      }
      const ClassId id = view.schema->FindClass(source.class_name);
      if (id == kInvalidClassId) continue;
      ground.insert(ground.end(), view.ground_sources[id].begin(),
                    view.ground_sources[id].end());
    }
  }

  // Each view class -> the merged class representing it, read by the
  // rules a round view carries and by the maps a later round reads.
  // Leaves carry no rules.
  View* views[] = {&v1, &v2};
  std::vector<ClassId> to_merged[2];
  for (int side = 0; side < 2; ++side) {
    const View& view = *views[side];
    if (last && view.rules.empty()) continue;
    to_merged[side].resize(view.schema->NumClasses());
    for (ClassId id = 0; id < static_cast<ClassId>(to_merged[side].size());
         ++id) {
      const size_t index = integrated.IndexOf(
          {view.schema->name(), view.schema->class_def(id).name()});
      to_merged[side][id] = index == IntegratedSchema::kNoClass
                                ? kInvalidClassId
                                : static_cast<ClassId>(index);
    }
  }

  // Carry and extend the rules.
  for (int side = 0; side < 2; ++side) {
    View& view = *views[side];
    for (Rule& carried : view.rules) {
      for (std::vector<Literal>* literals : {&carried.head, &carried.body}) {
        for (Literal& literal : *literals) {
          if (literal.kind != Literal::Kind::kOTerm) continue;
          std::string& class_name = literal.oterm.class_name;
          const ClassId id = view.schema->FindClass(class_name);
          if (id == kInvalidClassId) continue;
          const ClassId target = to_merged[side][id];
          if (target != kInvalidClassId) {
            class_name = merged.schema->class_def(target).name();
          }
        }
      }
      merged.rules.push_back(std::move(carried));
    }
  }
  merged.rules.insert(merged.rules.end(), integrated.rules().begin(),
                      integrated.rules().end());

  if (!last) {
    // Compose the attribute maps: per view class, the integrated
    // attribute each of its attributes became (the last integrated
    // attribute listing it as a source wins).
    using Renames = std::vector<std::pair<const std::string*,
                                          const std::string*>>;
    std::vector<Renames> renamed[2] = {
        std::vector<Renames>(v1.schema->NumClasses()),
        std::vector<Renames>(v2.schema->NumClasses())};
    auto rename = [&](const Path& source, const std::string& name) {
      const int side = source.schema() == v1.schema->name()   ? 0
                       : source.schema() == v2.schema->name() ? 1
                                                              : -1;
      if (side < 0) return;
      const ClassId id = views[side]->schema->FindClass(source.class_name());
      if (id == kInvalidClassId) return;
      Renames& renames = renamed[side][id];
      for (auto& [from, to] : renames) {
        if (*from == source.leaf()) {
          to = &name;
          return;
        }
      }
      renames.emplace_back(&source.leaf(), &name);
    };
    for (const IntegratedClass& c : integrated.classes()) {
      for (const IntegratedAttribute& a : c.attributes) {
        for (const Path& source : a.sources) rename(source, a.name);
      }
      for (const IntegratedAggregation& g : c.aggregations) {
        for (const Path& source : g.sources) rename(source, g.name);
      }
    }
    auto renamed_to = [&](int side, ClassId id,
                          const std::string& attr) -> std::string {
      for (const auto& [from, to] : renamed[side][id]) {
        if (*from == attr) return *to;
      }
      return "";
    };
    // Compose the class maps: agent class -> view class -> merged class.
    merged.classes.resize(agents_.size());
    for (int side = 0; side < 2; ++side) {
      const View& view = *views[side];
      for (size_t agent = 0; agent < agents_.size(); ++agent) {
        const Schema& ground = agents_[agent]->schema();
        if (view.leaf() ? agent != view.agent
                        : view.classes[agent].empty()) {
          continue;
        }
        std::vector<MappedClass>& out = merged.classes[agent];
        out.resize(ground.NumClasses());
        for (ClassId id = 0; id < static_cast<ClassId>(out.size()); ++id) {
          const ClassId view_class = view.MapClass(agent, id);
          if (view_class == kInvalidClassId) continue;
          out[id].id = to_merged[side][view_class];
          const ClassDef& class_def = ground.class_def(id);
          out[id].attrs.resize(class_def.attributes().size() +
                               class_def.aggregations().size());
          for (size_t slot = 0; slot < out[id].attrs.size(); ++slot) {
            const std::string& view_attr =
                view.leaf() ? SlotName(class_def, slot)
                            : view.classes[agent][id].attrs[slot];
            if (view_attr.empty()) continue;
            out[id].attrs[slot] = renamed_to(side, view_class, view_attr);
          }
        }
      }
    }
  }
  *last_round = std::move(integrated);
  return merged;
}

Result<GlobalSchema> Fsm::IntegrateAll(Strategy strategy) {
  if (agents_.empty()) {
    return Status::FailedPrecondition("no agents registered");
  }
  GlobalSchema global;
  if (agents_.size() == 1) {
    global.schema = agents_.front()->schema();
    for (const ClassDef& class_def : global.schema.classes()) {
      global.ground_sources[class_def.name()] = {
          {global.schema.name(), class_def.name()}};
    }
    return global;
  }

  std::vector<Grounding> groundings(assertions_.size());
  for (size_t i = 0; i < assertions_.size(); ++i) {
    const Assertion& assertion = assertions()[i];
    groundings[i].lhs.reserve(assertion.lhs.size());
    for (const ClassRef& c : assertion.lhs) {
      groundings[i].lhs.push_back(
          ResolveAgentClass(c.schema, c.class_name));
    }
    groundings[i].rhs =
        ResolveAgentClass(assertion.rhs.schema, assertion.rhs.class_name);
  }
  std::vector<View> views(agents_.size());
  for (size_t i = 0; i < agents_.size(); ++i) {
    views[i].schema = &agents_[i]->schema();
    views[i].agent = i;
  }
  auto integrate = [&](View& v1, View& v2, bool last) -> Result<View> {
    ++global.rounds;
    return IntegrateViews(std::move(v1), std::move(v2), last, &groundings,
                          &global.total_stats, &global.last_round);
  };

  switch (strategy) {
    case Strategy::kAccumulation: {
      // Fig. 2(a): fold one schema at a time into the running result.
      View acc = std::move(views.front());
      for (size_t i = 1; i < views.size(); ++i) {
        OOINT_ASSIGN_OR_RETURN(acc,
                               integrate(acc, views[i], i + 1 == views.size()));
      }
      views.front() = std::move(acc);
      views.resize(1);
      break;
    }
    case Strategy::kBalanced: {
      // Fig. 2(b): integrate pairs level by level.
      while (views.size() > 1) {
        std::vector<View> next_level;
        for (size_t i = 0; i + 1 < views.size(); i += 2) {
          OOINT_ASSIGN_OR_RETURN(
              View merged, integrate(views[i], views[i + 1], views.size() == 2));
          next_level.push_back(std::move(merged));
        }
        if (views.size() % 2 == 1) {
          next_level.push_back(std::move(views.back()));
        }
        views = std::move(next_level);
      }
      break;
    }
  }

  std::vector<std::string> unapplied;
  for (size_t i = 0; i < assertions_.size(); ++i) {
    const Grounding& grounding = groundings[i];
    if (grounding.applied) continue;
    bool unknown = grounding.rhs.id == kInvalidClassId;
    bool lhs_spans = false;
    for (const AgentClass& c : grounding.lhs) {
      unknown = unknown || c.id == kInvalidClassId;
      lhs_spans = lhs_spans || c.agent != grounding.lhs.front().agent;
    }
    const char* why =
        unknown     ? "it names a class no registered schema has"
        : lhs_spans ? "its lhs classes never share a view that meets its rhs"
                    : "both sides lie in one schema";
    unapplied.push_back(StrCat(AssertionHead(assertions()[i]), " (", why, ")"));
  }
  if (!unapplied.empty()) {
    return Status::InvalidArgument(
        StrCat("no integration round applies ", Join(unapplied, "; ")));
  }

  View& final_view = views.front();
  global.schema = std::move(*final_view.lowered);
  for (size_t c = 0; c < final_view.ground_sources.size(); ++c) {
    global.ground_sources.emplace(
        global.schema.class_def(static_cast<ClassId>(c)).name(),
        std::move(final_view.ground_sources[c]));
  }
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
