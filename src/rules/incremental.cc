#include "rules/incremental.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "rules/matcher.h"
#include "rules/term.h"

namespace ooint {

std::atomic<bool> IncrementalEvaluator::decrement_bug_{false};

namespace {

/// True when variable `var` occurs in some body literal of `rule`.
bool VarInBody(const Rule& rule, const std::string& var) {
  for (const Literal& literal : rule.body) {
    std::vector<std::string> vars;
    CollectVariables(literal, &vars);
    for (const std::string& v : vars) {
      if (v == var) return true;
    }
  }
  return false;
}

}  // namespace

void DeltaMaintenanceStats::Accumulate(const DeltaMaintenanceStats& o) {
  batches += o.batches;
  base_inserted += o.base_inserted;
  base_deleted += o.base_deleted;
  noop_deletes += o.noop_deletes;
  facts_inserted += o.facts_inserted;
  facts_deleted += o.facts_deleted;
  overdeleted += o.overdeleted;
  rederived += o.rederived;
  rounds += o.rounds;
}

std::string DeltaMaintenanceStats::ToString() const {
  return StrCat("batches=", batches, " base+=", base_inserted,
                " base-=", base_deleted, " noop_deletes=", noop_deletes,
                " facts+=", facts_inserted, " facts-=", facts_deleted,
                " overdeleted=", overdeleted, " rederived=", rederived,
                " rounds=", rounds);
}

Result<std::unique_ptr<IncrementalEvaluator>> IncrementalEvaluator::Adopt(
    Evaluator* ev) {
  if (ev == nullptr) {
    return Status::InvalidArgument("cannot adopt a null evaluator");
  }
  std::unique_ptr<IncrementalEvaluator> engine(new IncrementalEvaluator(ev));
  OOINT_RETURN_IF_ERROR(engine->Initialize());
  return engine;
}

IncrementalEvaluator::~IncrementalEvaluator() {
  // Revert the evaluator to classic (everything-stored-is-live) mode;
  // callers that keep using it afterwards must Reset() + Evaluate().
  if (ev_ != nullptr) {
    ev_->live_filter_ = nullptr;
    ev_->resolver_override_ = nullptr;
  }
}

size_t IncrementalEvaluator::live_count() const {
  size_t n = 0;
  for (std::uint8_t b : live_) n += b;
  return n;
}

void IncrementalEvaluator::Ensure(FactId id) {
  if (id < live_.size()) return;
  live_.resize(id + 1, 0);
  base_count_.resize(id + 1, 0);
  deriv_count_.resize(id + 1, 0);
}

void IncrementalEvaluator::Kill(FactId id) {
  live_[id] = 0;
  if (id < old_live_.size() && old_live_[id] != 0) {
    net_dead_.insert(id);
  } else {
    net_born_.erase(id);
  }
}

void IncrementalEvaluator::Birth(FactId id) {
  live_[id] = 1;
  if (id < old_live_.size() && old_live_[id] != 0) {
    net_dead_.erase(id);
  } else {
    net_born_.insert(id);
  }
}

Status IncrementalEvaluator::Initialize() {
  ev_->Reset();
  graph_ = std::make_unique<const RuleGraph>(ev_->rules_);
  OOINT_RETURN_IF_ERROR(graph_->stratified());
  ev_->live_filter_ = &live_;
  ev_->resolver_override_ = [this](const Oid& oid) { return ResolveOid(oid); };
  OOINT_RETURN_IF_ERROR(LoadBase());
  ev_->evaluated_ = true;
  ev_->degraded_ = DegradedInfo();
  return Status::OK();
}

std::vector<IncrementalEvaluator::Plan> IncrementalEvaluator::PlansOf(
    int stratum) const {
  std::vector<Plan> plans;
  for (size_t index : graph_->RulesInStratum(stratum)) {
    const Rule& rule = ev_->rules_[index];
    Plan plan{&rule, {}, {}};
    for (size_t i = 0; i < rule.body.size(); ++i) {
      const Literal& literal = rule.body[i];
      if (literal.kind == Literal::Kind::kCompare) continue;
      if (literal.negated) {
        plan.negated.emplace_back(i, literal.concept_name());
      } else {
        plan.positive.emplace_back(i, literal.concept_name());
      }
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

Status IncrementalEvaluator::LoadBase() {
  // Mirror of Evaluator::LoadBaseFacts, serial and strict: every
  // concept binding in declaration order, then the seeds — the fact ids
  // (and therefore the OID resolver's first-inserted precedence) come
  // out identical to a from-scratch load.
  BaseDelta initial;
  for (const Evaluator::ConceptBinding& binding : ev_->bindings_decl_) {
    const Evaluator::Source& source = ev_->sources_[binding.source_index];
    const ExtentReply reply = Evaluator::FetchOne(
        {source.source, binding.class_name}, ev_->token_);
    if (!reply.status.ok()) return reply.status;
    for (const Object* object : reply.objects) {
      if (object == nullptr) continue;
      initial.inserts.push_back(
          Fact::FromObject(binding.concept_name, *object));
    }
  }
  for (const Fact& seed : ev_->seed_facts_) initial.inserts.push_back(seed);
  DeltaMaintenanceStats adopt_stats;
  return RunBatch(initial, /*initial=*/true, &adopt_stats);
}

Result<DeltaMaintenanceStats> IncrementalEvaluator::ApplyBaseDelta(
    const BaseDelta& delta) {
  DeltaMaintenanceStats stats;
  stats.batches = 1;
  OOINT_RETURN_IF_ERROR(RunBatch(delta, /*initial=*/false, &stats));
  cumulative_.Accumulate(stats);
  return stats;
}

Result<DeltaMaintenanceStats> IncrementalEvaluator::ApplyExtentDelta(
    const std::string& schema_name, const std::vector<Object>& inserted,
    const std::vector<Object>& deleted) {
  BaseDelta delta;
  for (const Evaluator::ConceptBinding& binding : ev_->bindings_decl_) {
    const Evaluator::Source& source = ev_->sources_[binding.source_index];
    if (source.schema_name != schema_name) continue;
    const Schema& schema = source.source->schema();
    Result<ClassId> bound = schema.GetClass(binding.class_name);
    if (!bound.ok()) return bound.status();
    for (const Object& object : inserted) {
      if (!schema.IsSubclassOf(object.class_id(), bound.value())) continue;
      delta.inserts.push_back(Fact::FromObject(binding.concept_name, object));
    }
    for (const Object& object : deleted) {
      if (!schema.IsSubclassOf(object.class_id(), bound.value())) continue;
      delta.deletes.push_back(Fact::FromObject(binding.concept_name, object));
    }
  }
  return ApplyBaseDelta(delta);
}

Status IncrementalEvaluator::RunBatch(const BaseDelta& delta, bool initial,
                                      DeltaMaintenanceStats* stats) {
  old_live_ = live_;
  net_born_.clear();
  net_dead_.clear();
  parked_overdeleted_.clear();
  // Batch boundary: base deltas (and any program change since the last
  // batch) may have shifted extent cardinalities, so cached pivot-join
  // plans are stale. They are cheap to rebuild — one symbolic replay
  // per (rule, pivot position) on first use.
  plan_cache_.clear();

  // Phase 0: base-fact application. Inserts before deletes, so an
  // insert-then-delete of one fact inside one batch nets out.
  for (const Fact& fact : delta.inserts) {
    bool was_new = false;
    FactId id = store().InsertOrFind(Fact(fact), &was_new);
    Ensure(id);
    ++base_count_[id];
    ++stats->base_inserted;
    if (live_[id] == 0) Birth(id);
  }
  for (const Fact& fact : delta.deletes) {
    const FactId id = store().FindExisting(fact);
    if (id == kNoFact || id >= live_.size() || live_[id] == 0 ||
        base_count_[id] == 0) {
      // Deleting a fact that was never (base-)inserted is a no-op.
      ++stats->noop_deletes;
      continue;
    }
    --base_count_[id];
    ++stats->base_deleted;
    if (base_count_[id] > 0) continue;
    const std::string& cname = store().ConceptName(store().ConceptOf(id));
    if (deriv_count_[id] <= 0) {
      Kill(id);
    } else if (graph_->IsRecursive(cname)) {
      // DRed: a recursive fact that lost its base support may only be
      // standing on a derivation cycle through itself — over-delete now,
      // rederive against the post-delete world when its stratum runs.
      Kill(id);
      ++stats->overdeleted;
      parked_overdeleted_[graph_->StratumOf(cname)].push_back(id);
    }
    // Non-recursive with derivations left: counts are exact, the fact
    // legitimately survives on derived support alone.
  }

  for (int s = 0; s <= graph_->max_stratum(); ++s) {
    const std::vector<Plan> plans = PlansOf(s);
    std::map<FactId, std::uint32_t> death_round;
    std::vector<FactId> overdeleted;
    auto parked = parked_overdeleted_.find(s);
    if (parked != parked_overdeleted_.end()) {
      overdeleted = std::move(parked->second);
    }
    OOINT_RETURN_IF_ERROR(
        DeletePhase(s, plans, &death_round, &overdeleted, stats));
    std::vector<FactId> revived;
    OOINT_RETURN_IF_ERROR(
        RederivePhase(s, plans, overdeleted, &revived, stats));
    OOINT_RETURN_IF_ERROR(InsertPhase(s, plans, revived, initial, stats));
  }

  stats->facts_inserted += net_born_.size();
  stats->facts_deleted += net_dead_.size();
  // Invariant: dead facts carry zero counts (a later revival starts
  // from a clean slate).
  for (FactId id : net_dead_) deriv_count_[id] = 0;

  // Keep the adopted evaluator's headline stats meaningful.
  ev_->stats_.strata = static_cast<size_t>(graph_->max_stratum()) + 1;
  size_t base = 0;
  size_t derived = 0;
  for (FactId id = 0; id < live_.size(); ++id) {
    if (live_[id] == 0) continue;
    if (base_count_[id] > 0) {
      ++base;
    } else {
      ++derived;
    }
  }
  ev_->stats_.base_facts = base;
  ev_->stats_.derived_facts = derived;
  return Status::OK();
}

Status IncrementalEvaluator::DeletePhase(
    int stratum, const std::vector<Plan>& plans,
    std::map<FactId, std::uint32_t>* death_round,
    std::vector<FactId>* overdeleted, DeltaMaintenanceStats* stats) {
  (void)stratum;
  if (plans.empty()) return Status::OK();
  // Nested-descriptor OID hops during delete joins resolve in the
  // batch-old world (the derivations being retracted existed there).
  resolver_world_ = &old_live_;

  std::vector<FactId> pivots(net_dead_.begin(), net_dead_.end());
  for (FactId id : pivots) (*death_round)[id] = 1;

  bool have_flips = false;
  for (const Plan& plan : plans) {
    if (!plan.negated.empty()) have_flips = true;
  }
  have_flips = have_flips && !net_born_.empty();

  // Masks for the negation-flip post-checks.
  std::vector<std::uint8_t> born_mask;
  if (have_flips) {
    born_mask.assign(live_.size(), 0);
    for (FactId id : net_born_) born_mask[id] = 1;
  }

  const FactMatcher matcher = ev_->MakeMatcher();
  std::uint32_t r = 1;
  while (!pivots.empty() || (r == 1 && have_flips)) {
    ++stats->rounds;
    std::vector<FactId> next;
    for (FactId pivot : pivots) {
      const std::string& cname =
          store().ConceptName(store().ConceptOf(pivot));
      for (const Plan& plan : plans) {
        for (const auto& [pos, concept_name] : plan.positive) {
          if (concept_name != cname) continue;
          std::vector<Evaluator::Solution> sols;
          OOINT_RETURN_IF_ERROR(SolvePivot(*plan.rule, pos, pivot, r,
                                           PivotMode::kDeleteRound,
                                           *death_round, &sols));
          for (const Evaluator::Solution& sol : sols) {
            OOINT_ASSIGN_OR_RETURN(
                Fact head, Evaluator::BuildHeadFact(*plan.rule, matcher, sol));
            const FactId target = store().FindExisting(head);
            if (target == kNoFact) continue;
            DecrementDerivation(target, r, death_round, &next, overdeleted,
                                stats);
          }
        }
      }
    }
    if (r == 1 && have_flips) {
      // Negation flips: a net-born lower-stratum fact g newly satisfies
      // a negated literal, retracting every derivation whose negation
      // check was unsatisfied in the old world. Solved by making the
      // literal positive and pinning it to g; position-ordered
      // telescoping within round 1 dedups against the positive pivots.
      for (const Plan& plan : plans) {
        for (const auto& [m, concept_name] : plan.negated) {
          std::vector<FactId> flips;
          for (FactId g : net_born_) {
            if (store().ConceptName(store().ConceptOf(g)) == concept_name) {
              flips.push_back(g);
            }
          }
          if (flips.empty()) continue;
          for (FactId g : flips) {
            std::vector<Evaluator::Solution> sols;
            OOINT_RETURN_IF_ERROR(SolvePivot(*plan.rule, m, g, 1,
                                             PivotMode::kFlipDown,
                                             *death_round, &sols));
            for (Evaluator::Solution& sol : sols) {
              // The retracted derivation requires the negation to have
              // been unsatisfied in the old world...
              std::vector<FactId> matches;
              MatchingFacts(plan.rule->body[m], sol.bindings, old_live_,
                            &matches);
              if (!matches.empty()) continue;
              // ...and g to be the minimal net-born fact satisfying it
              // now (several may appear at once; count the flip once).
              matches.clear();
              MatchingFacts(plan.rule->body[m], sol.bindings, born_mask,
                            &matches);
              if (matches.empty() || matches.front() != g) continue;
              // The original rule never merges the negated literal's
              // fact into the head.
              sol.matched[m] = FactView();
              OOINT_ASSIGN_OR_RETURN(
                  Fact head,
                  Evaluator::BuildHeadFact(*plan.rule, matcher, sol));
              const FactId target = store().FindExisting(head);
              if (target == kNoFact) continue;
              DecrementDerivation(target, 1, death_round, &next, overdeleted,
                                  stats);
            }
          }
        }
      }
    }
    pivots = std::move(next);
    ++r;
  }
  resolver_world_ = nullptr;
  return Status::OK();
}

void IncrementalEvaluator::DecrementDerivation(
    FactId target, std::uint32_t round,
    std::map<FactId, std::uint32_t>* death_round, std::vector<FactId>* next,
    std::vector<FactId>* overdeleted, DeltaMaintenanceStats* stats) {
  Ensure(target);
  std::int64_t& count = deriv_count_[target];
  if (decrement_bug_.load(std::memory_order_relaxed) && count == 1) {
    // Injected off-by-one (harness mutation check): the guard reads
    // "> 1" instead of ">= 1", so the last derivation is never
    // retracted and deletions under-propagate.
  } else if (count > 0) {
    --count;
  }
  if (live_[target] == 0) return;  // already dead / scheduled
  if (base_count_[target] > 0) return;
  const std::string& cname =
      store().ConceptName(store().ConceptOf(target));
  if (graph_->IsRecursive(cname)) {
    // DRed over-deletion: any lost support without base support is
    // suspect of standing on a cycle through itself.
    Kill(target);
    (*death_round)[target] = round + 1;
    next->push_back(target);
    overdeleted->push_back(target);
    ++stats->overdeleted;
  } else if (count <= 0) {
    // Exact counting: the last derivation is gone.
    Kill(target);
    (*death_round)[target] = round + 1;
    next->push_back(target);
  }
}

Status IncrementalEvaluator::RederivePhase(
    int stratum, const std::vector<Plan>& plans,
    const std::vector<FactId>& overdeleted, std::vector<FactId>* revived,
    DeltaMaintenanceStats* stats) {
  (void)stratum;
  if (overdeleted.empty()) return Status::OK();
  // One pass against the frozen post-delete world: revivals do NOT
  // enter the frozen world (derivations through a sibling revival are
  // added by the insert phase, where revived facts pivot) — that is
  // what keeps each derivation counted exactly once.
  const std::vector<std::uint8_t> frozen = live_;
  resolver_world_ = &frozen;
  std::vector<FactId> targets = overdeleted;
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  std::map<const Rule*, std::vector<FactId>> full_cache;
  Status status = Status::OK();
  for (FactId h : targets) {
    if (live_[h] != 0) continue;
    Result<std::int64_t> count = CountDerivations(h, plans, frozen,
                                                  &full_cache);
    if (!count.ok()) {
      status = count.status();
      break;
    }
    if (count.value() > 0) {
      deriv_count_[h] = count.value();
      Birth(h);
      revived->push_back(h);
      ++stats->rederived;
    } else {
      deriv_count_[h] = 0;
    }
  }
  resolver_world_ = nullptr;
  return status;
}

Result<std::int64_t> IncrementalEvaluator::CountDerivations(
    FactId fact_id, const std::vector<Plan>& plans,
    const std::vector<std::uint8_t>& world,
    std::map<const Rule*, std::vector<FactId>>* full_solutions) {
  const FactView fact = store().ViewById(fact_id);
  const std::string& concept_name =
      store().ConceptName(store().ConceptOf(fact_id));
  const FactMatcher matcher = ev_->MakeMatcher();
  std::int64_t total = 0;
  for (const Plan& plan : plans) {
    const Rule& rule = *plan.rule;
    if (rule.head.front().concept_name() != concept_name) continue;
    Bindings seed;
    const HeadUnify unify = UnifyHead(rule, fact, matcher, &seed);
    if (unify == HeadUnify::kNoMatch) continue;
    // Rederivation sits between the deletion and insertion rounds of
    // the batch order: positive factors show old-and-still-live facts
    // only (derivations through batch-born facts are the insert
    // phase's increments), negated factors the usual union world.
    const auto admit = [this, &rule, &world](size_t i, FactId id) {
      if (rule.body[i].negated) return InUnion(id);
      return id < old_live_.size() && old_live_[id] != 0 &&
             id < world.size() && world[id] != 0;
    };
    if (unify == HeadUnify::kBindings) {
      // Head-restricted: the head's structure pins bindings, the join
      // only explores derivations that can produce this fact. Each
      // solution is still verified — merged attributes may diverge.
      std::vector<Evaluator::Solution> sols;
      OOINT_RETURN_IF_ERROR(SolveSeeded(rule, seed, admit, &sols));
      for (const Evaluator::Solution& sol : sols) {
        OOINT_ASSIGN_OR_RETURN(
            Fact head, Evaluator::BuildHeadFact(rule, matcher, sol));
        if (store().FindExisting(head) == fact_id) ++total;
      }
      continue;
    }
    // Structurally un-unifiable head (attribute-name variables, nested
    // descriptors): full solve, cached across the pass's facts.
    auto it = full_solutions->find(&rule);
    if (it == full_solutions->end()) {
      std::vector<Evaluator::Solution> sols;
      OOINT_RETURN_IF_ERROR(SolveSeeded(rule, Bindings{}, admit, &sols));
      std::vector<FactId> head_ids;
      head_ids.reserve(sols.size());
      for (const Evaluator::Solution& sol : sols) {
        OOINT_ASSIGN_OR_RETURN(
            Fact head, Evaluator::BuildHeadFact(rule, matcher, sol));
        head_ids.push_back(store().FindExisting(head));
      }
      it = full_solutions->emplace(&rule, std::move(head_ids)).first;
    }
    for (FactId id : it->second) {
      if (id == fact_id) ++total;
    }
  }
  return total;
}

Status IncrementalEvaluator::InsertPhase(int stratum,
                                         const std::vector<Plan>& plans,
                                         const std::vector<FactId>& revived,
                                         bool initial,
                                         DeltaMaintenanceStats* stats) {
  (void)stratum;
  if (plans.empty()) return Status::OK();

  std::map<FactId, std::uint32_t> birth_round;
  std::vector<FactId> pivots(net_born_.begin(), net_born_.end());
  // Facts over-deleted in this stratum and revived must re-increment
  // their consumers within the stratum (those decrements happened in
  // the delete phase); they pivot alongside the net-born facts.
  pivots.insert(pivots.end(), revived.begin(), revived.end());
  std::sort(pivots.begin(), pivots.end());
  pivots.erase(std::unique(pivots.begin(), pivots.end()), pivots.end());
  for (FactId id : pivots) birth_round[id] = 1;

  bool have_flips = false;
  for (const Plan& plan : plans) {
    if (!plan.negated.empty()) have_flips = true;
  }
  have_flips = have_flips && !net_dead_.empty();
  std::vector<std::uint8_t> dead_mask;
  std::vector<FactId> dead_snapshot;
  if (have_flips) {
    dead_mask.assign(live_.size(), 0);
    for (FactId id : net_dead_) {
      dead_mask[id] = 1;
      dead_snapshot.push_back(id);
    }
  }

  bool have_const_rules = false;
  if (initial) {
    for (const Plan& plan : plans) {
      if (plan.positive.empty()) have_const_rules = true;
    }
  }

  const FactMatcher matcher = ev_->MakeMatcher();
  std::uint32_t r = 1;
  bool flips_done = !have_flips;
  while (true) {
    const bool do_const = r == 1 && have_const_rules;
    if (pivots.empty() && !do_const) {
      if (flips_done) break;
      // The positive insertion rounds are dry: run the flip-ups (the
      // last events of the batch order — a net-died fact g releases a
      // negated literal, admitting derivations valid only in the new
      // world). What they derive cascades through post-flip rounds.
      flips_done = true;
      ++stats->rounds;
      std::vector<FactId> born_queue;
      for (const Plan& plan : plans) {
        for (const auto& [m, concept_name] : plan.negated) {
          std::vector<FactId> flips;
          for (FactId g : dead_snapshot) {
            if (store().ConceptName(store().ConceptOf(g)) == concept_name) {
              flips.push_back(g);
            }
          }
          if (flips.empty()) continue;
          for (FactId g : flips) {
            std::vector<Evaluator::Solution> sols;
            OOINT_RETURN_IF_ERROR(SolvePivot(*plan.rule, m, g, r,
                                             PivotMode::kFlipUp, birth_round,
                                             &sols));
            for (Evaluator::Solution& sol : sols) {
              // The gained derivation requires the negation to hold in
              // the new world...
              std::vector<FactId> matches;
              MatchingFacts(plan.rule->body[m], sol.bindings, live_,
                            &matches);
              if (!matches.empty()) continue;
              // ...and g to be the minimal net-died fact that was
              // blocking it (several may leave at once; one event).
              matches.clear();
              MatchingFacts(plan.rule->body[m], sol.bindings, dead_mask,
                            &matches);
              if (matches.empty() || matches.front() != g) continue;
              sol.matched[m] = FactView();
              OOINT_ASSIGN_OR_RETURN(
                  Fact head,
                  Evaluator::BuildHeadFact(*plan.rule, matcher, sol));
              IncrementDerivation(std::move(head), r, &birth_round,
                                  &born_queue);
            }
          }
        }
      }
      for (FactId id : born_queue) {
        Birth(id);
        pivots.push_back(id);
      }
      ++r;
      continue;
    }
    ++stats->rounds;
    const PivotMode mode = flips_done && have_flips
                               ? PivotMode::kInsertPostFlip
                               : PivotMode::kInsertRound;
    std::vector<FactId> next;
    std::vector<FactId> born_queue;
    for (FactId pivot : pivots) {
      const std::string& cname =
          store().ConceptName(store().ConceptOf(pivot));
      for (const Plan& plan : plans) {
        for (const auto& [pos, concept_name] : plan.positive) {
          if (concept_name != cname) continue;
          std::vector<Evaluator::Solution> sols;
          OOINT_RETURN_IF_ERROR(SolvePivot(*plan.rule, pos, pivot, r, mode,
                                           birth_round, &sols));
          for (const Evaluator::Solution& sol : sols) {
            OOINT_ASSIGN_OR_RETURN(
                Fact head, Evaluator::BuildHeadFact(*plan.rule, matcher, sol));
            IncrementDerivation(std::move(head), r, &birth_round, &born_queue);
          }
        }
      }
    }
    if (do_const) {
      // Initial adoption only: rules without positive fact literals
      // fire once, unrestricted (mirrors the classic first round).
      for (const Plan& plan : plans) {
        if (!plan.positive.empty()) continue;
        std::vector<Evaluator::Solution> sols;
        const auto admit = [this, &plan](size_t i, FactId id) {
          return plan.rule->body[i].negated ? InUnion(id) : IsLive(id);
        };
        OOINT_RETURN_IF_ERROR(
            SolveSeeded(*plan.rule, Bindings{}, admit, &sols));
        for (const Evaluator::Solution& sol : sols) {
          OOINT_ASSIGN_OR_RETURN(
              Fact head, Evaluator::BuildHeadFact(*plan.rule, matcher, sol));
          IncrementDerivation(std::move(head), r, &birth_round, &born_queue);
        }
      }
    }
    // Round boundary: births become visible (worlds inside a round are
    // frozen — a fact derived mid-round joins the next round's pivots).
    for (FactId id : born_queue) {
      Birth(id);
      next.push_back(id);
    }
    pivots = std::move(next);
    ++r;
  }
  return Status::OK();
}

void IncrementalEvaluator::IncrementDerivation(
    Fact fact, std::uint32_t round,
    std::map<FactId, std::uint32_t>* birth_round,
    std::vector<FactId>* born_queue) {
  bool was_new = false;
  const FactId id = store().InsertOrFind(std::move(fact), &was_new);
  Ensure(id);
  ++deriv_count_[id];
  if (live_[id] == 0 && birth_round->count(id) == 0) {
    (*birth_round)[id] = round + 1;
    born_queue->push_back(id);
  }
}

Status IncrementalEvaluator::SolvePivot(
    const Rule& rule, size_t pos, FactId pivot, std::uint32_t round,
    PivotMode mode, const std::map<FactId, std::uint32_t>& round_of,
    std::vector<Evaluator::Solution>* solutions) {
  // Pivot joins replay a plan cached per (rule, pos) for the batch: the
  // pivot position is a single fact (selectivity 1), so the cost-based
  // planner anchors the join there and orders the rest by estimated
  // cost. A negated `pos` is a negation flip, solved as the rule with
  // that literal made positive; the entry owns that rewritten rule, so
  // the key is always a rule of the program itself.
  const bool flip = rule.body[pos].negated;
  const auto key = std::make_pair(&rule, pos);
  auto it = plan_cache_.find(key);
  if (it == plan_cache_.end()) {
    PivotPlan entry;
    if (flip) {
      entry.flipped = rule;
      entry.flipped.body[pos].negated = false;
    }
    entry.plan = ev_->ComputePlan(flip ? entry.flipped : rule,
                                  static_cast<int>(pos),
                                  static_cast<int>(pos));
    it = plan_cache_.emplace(key, std::move(entry)).first;
  }
  Evaluator::JoinContext ctx;
  ctx.rule = flip ? &it->second.flipped : &rule;
  ctx.plan = &it->second.plan;
  ctx.stats = &scratch_stats_;
  ctx.scratch = &join_scratch_;
  Evaluator::IncrementalHooks hooks;
  hooks.pivot_literal = static_cast<int>(pos);
  hooks.pivot_fact = pivot;
  const Rule* body_rule = &rule;
  const auto old_world = [this](FactId id) {
    return id < old_live_.size() && old_live_[id] != 0;
  };
  // Telescoped worlds: a factor whose elementary change is ordered
  // before the pivot's event shows its new state, one ordered after
  // shows its old state (ties broken by body position). See PivotMode
  // for the global event order the worlds encode.
  switch (mode) {
    case PivotMode::kDeleteRound:
      hooks.admit = [this, body_rule, pos, round, &round_of, old_world](
                        size_t i, FactId id) {
        if (i == pos) return true;
        // Negated literals: flip-downs applied, flip-ups not — born
        // and died facts are both visible.
        if (body_rule->body[i].negated) return InUnion(id);
        if (!old_world(id)) return false;
        auto it = round_of.find(id);
        if (it == round_of.end()) return true;
        return i < pos ? it->second > round : it->second >= round;
      };
      break;
    case PivotMode::kFlipDown:
      // First events of the batch: nothing else has happened yet, so
      // positive factors read the fully-old world (deaths included).
      // Negated factors: earlier positions' flip-downs applied (union),
      // later ones not (old).
      hooks.admit = [this, body_rule, pos, old_world](size_t i, FactId id) {
        if (i == pos) return true;
        if (body_rule->body[i].negated) {
          return i < pos ? InUnion(id) : old_world(id);
        }
        return old_world(id);
      };
      break;
    case PivotMode::kInsertRound:
      hooks.admit = [this, body_rule, pos, round, &round_of](size_t i,
                                                             FactId id) {
        if (i == pos) return true;
        if (body_rule->body[i].negated) return InUnion(id);
        if (!IsLive(id)) return false;
        if (i < pos) return true;
        auto it = round_of.find(id);
        return it == round_of.end() || it->second < round;
      };
      break;
    case PivotMode::kInsertPostFlip:
      // Cascades after the flip-ups: negation now reads the final
      // world (died facts gone, born facts in).
      hooks.admit = [this, body_rule, pos, round, &round_of](size_t i,
                                                             FactId id) {
        if (i == pos) return true;
        if (body_rule->body[i].negated) return IsLive(id);
        if (!IsLive(id)) return false;
        if (i < pos) return true;
        auto it = round_of.find(id);
        return it == round_of.end() || it->second < round;
      };
      break;
    case PivotMode::kFlipUp:
      // After every deletion and insertion round: positive factors
      // read the new world outright. Negated: earlier positions'
      // flip-ups applied (new), later ones pending (union).
      hooks.admit = [this, body_rule, pos](size_t i, FactId id) {
        if (i == pos) return true;
        if (body_rule->body[i].negated) {
          return i < pos ? IsLive(id) : InUnion(id);
        }
        return IsLive(id);
      };
      break;
  }
  ctx.inc = &hooks;
  const FactMatcher matcher = ev_->MakeMatcher();
  return ev_->SolveRule(matcher, ctx, solutions);
}

Status IncrementalEvaluator::SolveSeeded(
    const Rule& rule, const Bindings& seed,
    const std::function<bool(size_t, FactId)>& admit,
    std::vector<Evaluator::Solution>* solutions) {
  // The seed binds its variables before the body runs; the planner
  // counts them as bound from the start.
  std::set<std::string> bound;
  for (const auto& [var, value] : seed) bound.insert(var);
  const BodyPlan plan = ev_->ComputePlan(rule, -1, -1, std::move(bound));
  const std::vector<CompiledOTerm> compiled = Evaluator::CompileBody(rule);
  Evaluator::JoinContext ctx;
  ctx.rule = &rule;
  ctx.plan = &plan;
  ctx.stats = &scratch_stats_;
  ctx.scratch = &join_scratch_;
  join_scratch_.EnsureDepths(rule.body.size());
  Evaluator::IncrementalHooks hooks;
  hooks.admit = admit;
  ctx.inc = &hooks;
  const FactMatcher matcher = ev_->MakeMatcher();
  Evaluator::Solution init;
  init.bindings = seed;
  init.matched.assign(rule.body.size(), FactView());
  return ev_->SolveBody(matcher, ctx, compiled, 0, std::move(init), solutions);
}

void IncrementalEvaluator::MatchingFacts(
    const Literal& literal, const Bindings& bindings,
    const std::vector<std::uint8_t>& world, std::vector<FactId>* out) const {
  const ConceptId concept_id = store().FindConcept(literal.concept_name());
  if (concept_id == kNoConcept) return;
  const FactMatcher matcher = ev_->MakeMatcher();
  const CompiledOTerm pattern(literal.oterm);
  MatchFrame frame;
  frame.Reset(&pattern, &bindings);
  const size_t count = store().CountOf(concept_id);
  for (std::uint32_t ordinal = 0; ordinal < count; ++ordinal) {
    const FactId id = store().IdAt(concept_id, ordinal);
    if (id >= world.size() || world[id] == 0) continue;
    const FactView view = store().ViewAt(concept_id, ordinal);
    if (literal.kind == Literal::Kind::kOTerm) {
      bool matched = false;
      matcher.Match(view, &frame, [&](const MatchFrame&) { matched = true; });
      if (matched) out->push_back(id);
      continue;
    }
    Bindings scratch = bindings;
    if (matcher.MatchArgs(literal.args, view, &scratch)) out->push_back(id);
  }
}

IncrementalEvaluator::HeadUnify IncrementalEvaluator::UnifyHead(
    const Rule& rule, const FactView& fact, const FactMatcher& matcher,
    Bindings* seed) const {
  const Literal& head = rule.head.front();
  if (head.kind == Literal::Kind::kPredicate) {
    for (const TermArg& arg : head.args) {
      if (!arg.is_constant() && !arg.is_variable()) {
        return HeadUnify::kUnsupported;
      }
    }
    return matcher.MatchArgs(head.args, fact, seed) ? HeadUnify::kBindings
                                                    : HeadUnify::kNoMatch;
  }
  if (head.kind != Literal::Kind::kOTerm) return HeadUnify::kUnsupported;
  const OTerm& oterm = head.oterm;
  if (oterm.object.is_constant()) {
    if (oterm.object.constant.kind() != ValueKind::kOid) {
      return HeadUnify::kUnsupported;
    }
    if (!matcher.ValuesEqual(oterm.object.constant, fact.oid_handle())) {
      return HeadUnify::kNoMatch;
    }
  } else if (oterm.object.is_variable()) {
    const std::string& var = oterm.object.var;
    // Only seed the object variable when the body binds it — an
    // unbound object variable means a skolem head, and seeding it
    // would make BuildHeadFact construct a different (bound-OID) fact.
    if (!var.empty() && var[0] != '_' && VarInBody(rule, var)) {
      auto bound = seed->find(var);
      if (bound != seed->end()) {
        if (!matcher.ValuesEqual(bound->second, fact.oid_handle())) {
          return HeadUnify::kNoMatch;
        }
      } else {
        (*seed)[var] = fact.oid_handle().Materialize();
      }
    }
  } else {
    return HeadUnify::kUnsupported;
  }
  for (const AttrDescriptor& d : oterm.attrs) {
    // Attribute-name variables and nested descriptors flatten in ways
    // head unification cannot invert — fall back to the full solve.
    if (d.attr_is_variable) return HeadUnify::kUnsupported;
    if (d.value.is_nested()) return HeadUnify::kUnsupported;
    const ValueHandle stored = fact.Find(d.attribute);
    if (d.value.is_constant()) {
      if (!stored.valid() || !matcher.ValuesEqual(d.value.constant, stored)) {
        return HeadUnify::kNoMatch;
      }
      continue;
    }
    const std::string& var = d.value.var;
    if (!var.empty() && var[0] == '_') continue;  // existential: unset
    if (!stored.valid()) return HeadUnify::kNoMatch;
    auto bound = seed->find(var);
    if (bound != seed->end()) {
      if (!matcher.ValuesEqual(bound->second, stored)) {
        return HeadUnify::kNoMatch;
      }
    } else {
      (*seed)[var] = stored.Materialize();
    }
  }
  return HeadUnify::kBindings;
}

FactView IncrementalEvaluator::ResolveOid(const Oid& oid) const {
  const std::vector<std::uint8_t>& world =
      resolver_world_ != nullptr ? *resolver_world_ : live_;
  std::vector<FactId> ids;
  store().FactIdsWithOid(oid, &ids);
  // Ids stream ascending (insertion order), so the first admitted
  // base-supported fact mirrors the classic store's first-inserted
  // precedence (base extents load before derived facts); a derived
  // fact only wins when no live base fact carries the OID.
  FactId best = kNoFact;
  for (FactId id : ids) {
    if (id >= world.size() || world[id] == 0) continue;
    if (id < base_count_.size() && base_count_[id] > 0) {
      return store().ViewById(id);
    }
    if (best == kNoFact) best = id;
  }
  if (best == kNoFact) return FactView();
  return store().ViewById(best);
}

}  // namespace ooint
