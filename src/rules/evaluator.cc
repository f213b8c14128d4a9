#include "rules/evaluator.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <numeric>
#include <set>

#include "common/string_util.h"
#include "rules/magic.h"

namespace ooint {

namespace {

/// The always-available, in-process implementation of ExtentSource.
class DirectStoreSource : public ExtentSource {
 public:
  explicit DirectStoreSource(const InstanceStore* store) : store_(store) {}

  const Schema& schema() const override { return store_->schema(); }

  Result<std::vector<const Object*>> FetchExtent(
      const std::string& class_name, const CancelToken&) override {
    Result<std::vector<Oid>> extent = store_->Extent(class_name);
    if (!extent.ok()) return extent.status();
    std::vector<const Object*> objects;
    objects.reserve(extent.value().size());
    for (const Oid& oid : extent.value()) {
      const Object* object = store_->Find(oid);
      if (object != nullptr) objects.push_back(object);
    }
    return objects;
  }

  std::uint64_t data_epoch() const override { return store_->data_epoch(); }

 private:
  const InstanceStore* store_;
};

/// The kDeadlineExceeded an expired/cancelled token unwinds with.
Status DeadlineStatus(const CancelToken& token, const char* where) {
  if (token.cancelled()) {
    return Status::DeadlineExceeded(StrCat("query cancelled ", where));
  }
  return Status::DeadlineExceeded(
      StrCat("query deadline (", token.budget_ms(), "ms) exceeded ", where,
             " (", token.spent_ms(), "ms spent)"));
}

/// Whether BuildHeadFact reads nothing of a body solution but its
/// bindings: a predicate head, or an O-term head whose entity is a
/// skolem (its object a non-OID constant, or a variable no body literal
/// mentions). A bound-OID head also merges the attributes of every
/// matched fact that carries its OID, so it needs every solution.
bool HeadReadsOnlyBindings(const Rule& rule) {
  const Literal& head = rule.head.front();
  if (head.kind == Literal::Kind::kPredicate) return true;
  const TermArg& object = head.oterm.object;
  if (object.is_constant()) return object.constant.kind() != ValueKind::kOid;
  if (!object.is_variable()) return false;
  std::vector<std::string> vars;
  for (const Literal& literal : rule.body) CollectVariables(literal, &vars);
  return std::find(vars.begin(), vars.end(), object.var) == vars.end();
}

}  // namespace

ExtentReply Evaluator::FetchOne(const ExtentRequest& request,
                                const CancelToken& token) {
  ExtentReply reply;
  if (token.Expired()) {
    reply.status = DeadlineStatus(token, "before extent fetch");
    return reply;
  }
  reply.issued = true;
  // Read before the fetch: if the store moves during it, the extent is
  // newer than the recorded epoch, so a segment encoded from it is never
  // matched at the newer epoch.
  reply.data_epoch = request.source->data_epoch();
  const auto start = std::chrono::steady_clock::now();
  Result<std::vector<const Object*>> extent =
      request.source->FetchExtent(request.class_name, token);
  reply.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  if (extent.ok()) {
    reply.objects = std::move(extent).value();
  } else {
    reply.status = extent.status();
  }
  return reply;
}

std::vector<ExtentReply> FetchExtentsOverlapped(
    const std::vector<ExtentRequest>& requests, ThreadPool* pool,
    const CancelToken& token) {
  std::vector<ExtentReply> replies(requests.size());
  auto fetch_one = [&requests, &replies, &token](size_t i) {
    replies[i] = Evaluator::FetchOne(requests[i], token);
  };
  if (pool == nullptr || pool->size() < 2 || requests.size() < 2) {
    for (size_t i = 0; i < requests.size(); ++i) fetch_one(i);
    return replies;
  }
  // One task per distinct source, in first-appearance order; requests
  // of one source stay serial and ordered within their task (see the
  // header's determinism contract).
  std::vector<std::vector<size_t>> groups;
  std::map<const ExtentSource*, size_t> group_of;
  for (size_t i = 0; i < requests.size(); ++i) {
    auto [it, inserted] = group_of.emplace(requests[i].source, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(groups.size());
  for (const std::vector<size_t>& group : groups) {
    tasks.emplace_back([&fetch_one, group] {
      for (size_t i : group) fetch_one(i);
    });
  }
  pool->RunAll(std::move(tasks));
  return replies;
}

bool DegradedInfo::SkippedAgentNamed(const std::string& schema_name) const {
  for (const SkippedAgent& agent : skipped) {
    if (agent.schema_name == schema_name) return true;
  }
  return false;
}

std::string DegradedInfo::ToString() const {
  if (!degraded()) {
    if (pruned_agents.empty()) return "complete";
    return StrCat("complete (relevance-pruned agents, not contacted: ",
                  Join(pruned_agents, ", "), ")");
  }
  std::string out = "degraded {\n";
  for (const SkippedAgent& agent : skipped) {
    out += StrCat("  skipped (fault) ", agent.schema_name, ": ",
                  agent.status.ToString(), "\n");
  }
  if (!pruned_agents.empty()) {
    out += StrCat("  relevance-pruned (not contacted, answer unaffected): ",
                  Join(pruned_agents, ", "), "\n");
  }
  if (!incomplete_concepts.empty() || !skipped.empty()) {
    out += StrCat("  incomplete: ", Join(incomplete_concepts, ", "), "\n");
  }
  if (!unsound_concepts.empty()) {
    out += StrCat("  possibly unsound (via negation): ",
                  Join(unsound_concepts, ", "), "\n");
  }
  if (deadline_truncated) {
    out += StrCat("  deadline-truncated (sound subset): ",
                  Join(truncated_concepts, ", "), "\n");
  }
  out += "}";
  return out;
}

void Evaluator::AddSource(const std::string& schema_name,
                          const InstanceStore* store) {
  AddSource(schema_name, std::make_unique<DirectStoreSource>(store));
}

void Evaluator::AddSource(const std::string& schema_name,
                          std::unique_ptr<ExtentSource> source) {
  Source entry;
  entry.schema_name = schema_name;
  entry.source = source.get();
  entry.owned = std::move(source);
  sources_.push_back(std::move(entry));
}

void Evaluator::AddBorrowedSource(const std::string& schema_name,
                                  ExtentSource* source) {
  Source entry;
  entry.schema_name = schema_name;
  entry.source = source;
  sources_.push_back(std::move(entry));
}

void Evaluator::AddFact(Fact fact) {
  seed_facts_.push_back(std::move(fact));
  evaluated_ = false;
}

Status Evaluator::BindConcept(const std::string& concept_name,
                              const std::string& schema_name,
                              const std::string& class_name) {
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].schema_name != schema_name) continue;
    if (sources_[i].source->schema().FindClass(class_name) ==
        kInvalidClassId) {
      return Status::NotFound(StrCat("class '", class_name,
                                     "' not in source schema '", schema_name,
                                     "'"));
    }
    bindings_decl_.push_back({concept_name, i, class_name});
    evaluated_ = false;
    return Status::OK();
  }
  return Status::NotFound(StrCat("no source registered for schema '",
                                 schema_name, "'"));
}

Status Evaluator::AddRule(Rule rule) {
  if (rule.documentation_only) {
    return Status::Unsupported(
        StrCat("rule is documentation-only: ", rule.ToString()));
  }
  if (rule.disjunctive_head || rule.head.size() != 1) {
    return Status::Unsupported(
        StrCat("only definite (single-head) rules are evaluable: ",
               rule.ToString()));
  }
  if (rule.head.front().kind == Literal::Kind::kCompare) {
    return Status::Unsupported(
        StrCat("comparison literals cannot head a rule: ", rule.ToString()));
  }
  OOINT_RETURN_IF_ERROR(CheckRuleSafety(rule));
  rules_.push_back(std::move(rule));
  evaluated_ = false;
  return Status::OK();
}

void Evaluator::Reset() {
  evaluated_ = false;
  store_.Clear();
  stats_ = Stats();
  degraded_ = DegradedInfo();
  reads_.clear();
}

FactMatcher Evaluator::MakeMatcher() const {
  if (resolver_override_) return FactMatcher(resolver_override_, mappings_);
  return FactMatcher(
      [this](const Oid& oid) { return store_.ViewByOid(oid); }, mappings_);
}

std::shared_ptr<const FactStore> SegmentCache::Find(
    const Key& key, const std::vector<std::uint64_t>& epochs) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.epochs != epochs) return nullptr;
  return it->second.segment;
}

void SegmentCache::Store(Key key, std::vector<std::uint64_t> epochs,
                         std::shared_ptr<const FactStore> segment) {
  std::map<std::string, std::uint64_t> newest;  // agent -> epoch read
  for (size_t i = 0; i < key.size(); ++i) {
    std::uint64_t& epoch = newest[key[i].schema_name];
    epoch = std::max(epoch, epochs[i]);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Key& other = it->first;
    bool stale = false;
    for (size_t i = 0; i < other.size() && !stale; ++i) {
      auto seen = newest.find(other[i].schema_name);
      stale = seen != newest.end() && it->second.epochs[i] < seen->second;
    }
    it = stale ? entries_.erase(it) : std::next(it);
  }
  entries_[std::move(key)] = {std::move(epochs), std::move(segment)};
}

size_t SegmentCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool Evaluator::ReadsCurrent(const std::vector<ExtentRead>& reads) {
  return std::all_of(reads.begin(), reads.end(), [](const ExtentRead& read) {
    return read.source->data_epoch() == read.data_epoch;
  });
}

Status Evaluator::LoadBaseFacts() {
  // Concept -> false, seeded with every directly incomplete concept;
  // the graph's downstream closure flips the flag past a negation.
  std::map<std::string, bool> direct;
  // Bound concepts whose fetch never completed because the query's
  // deadline fired — a loss charged to the *query*, not to any agent
  // (kPartial taxonomy: truncation, not a fault-skip).
  std::vector<std::string> truncated;
  std::vector<ExtentRequest> requests;
  requests.reserve(bindings_decl_.size());
  for (const ConceptBinding& binding : bindings_decl_) {
    requests.push_back(
        {sources_[binding.source_index].source, binding.class_name});
  }
  // With a pool, every extent is prefetched up front, overlapped across
  // sources (each source's retry/backoff/fault stream stays serial and
  // ordered). Without one, each extent is fetched in place, so kStrict
  // stops fetching at the first failure. Either way the replies are
  // taken in declaration order below, and the store receives base facts
  // in exactly that order.
  const bool prefetch =
      pool_ != nullptr && pool_->size() > 1 && requests.size() > 1;
  std::vector<ExtentReply> replies;
  if (prefetch) {
    const auto batch_start = std::chrono::steady_clock::now();
    replies = FetchExtentsOverlapped(requests, pool_.get(), token_);
    stats_.fetch_wall_ms += std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - batch_start)
                                .count();
  } else {
    replies.resize(requests.size());
  }
  // The replies that arrived, and the data epochs they were read at.
  std::vector<size_t> loaded;
  std::vector<std::uint64_t> epochs;
  for (size_t i = 0; i < requests.size(); ++i) {
    const ConceptBinding& binding = bindings_decl_[i];
    const Source& source = sources_[binding.source_index];
    if (!prefetch) replies[i] = FetchOne(requests[i], token_);
    const ExtentReply& reply = replies[i];
    if (reply.issued) {
      ++stats_.extents_fetched;
      if (prefetch) stats_.fetch_ms_sum += reply.wall_ms;
      reads_.push_back({source.source, reply.data_epoch});
    }
    if (!reply.status.ok()) {
      // Attribution rule: a failure processed while the query's token
      // is expired (or a fetch never issued because it already was) is
      // the *query's* loss (truncation), whatever the proximate status
      // — the clock ran out, retries stopped, and no agent should be
      // condemned for it. Otherwise it is the agent's fault (skip).
      if (!reply.issued || token_.Expired()) {
        if (failure_policy_ == FailurePolicy::kStrict) {
          return DeadlineStatus(token_, "during base extent loading");
        }
        truncated.push_back(binding.concept_name);
        continue;
      }
      if (failure_policy_ == FailurePolicy::kStrict) return reply.status;
      if (!degraded_.SkippedAgentNamed(source.schema_name)) {
        degraded_.skipped.push_back({source.schema_name, reply.status});
      }
      direct.emplace(binding.concept_name, false);
      continue;
    }
    loaded.push_back(i);
    epochs.push_back(reply.data_epoch);
  }

  // With a segment cache the base facts form a segment the store
  // overlays. Only a complete load at known epochs is shared: a
  // fault-skip or a truncation leaves a segment other loads must not
  // inherit.
  const bool shareable =
      segments_ != nullptr && loaded.size() == requests.size() &&
      std::find(epochs.begin(), epochs.end(), kNoDataEpoch) == epochs.end();
  SegmentCache::Key key;
  std::shared_ptr<const FactStore> segment;
  if (shareable) {
    key.reserve(bindings_decl_.size());
    for (const ConceptBinding& binding : bindings_decl_) {
      key.push_back({binding.concept_name,
                     sources_[binding.source_index].schema_name,
                     binding.class_name});
    }
    segment = segments_->Find(key, epochs);
  }
  if (segment != nullptr) {
    stats_.base_segments_reused = 1;
  } else {
    std::shared_ptr<FactStore> built;
    FactStore* target = &store_;
    if (segments_ != nullptr) {
      built = std::make_shared<FactStore>();
      target = built.get();
    }
    for (size_t i : loaded) {
      const std::string& concept_name = bindings_decl_[i].concept_name;
      for (const Object* object : replies[i].objects) {
        if (object != nullptr) {
          target->Insert(Fact::FromObject(concept_name, *object));
        }
      }
    }
    segment = std::move(built);
    if (shareable) segments_->Store(std::move(key), std::move(epochs), segment);
  }
  if (segment != nullptr) store_.AttachSegment(std::move(segment));
  stats_.base_facts = store_.size();
  // Seeds load after the extents, into the overlay when there is one.
  for (const Fact& seed : seed_facts_) {
    if (store_.Insert(seed) != kNoFact) ++stats_.base_facts;
  }
  if (!direct.empty()) {
    for (const auto& [concept_name, tainted] :
         RuleGraph(rules_).Downstream(direct)) {
      degraded_.incomplete_concepts.push_back(concept_name);
      if (tainted) degraded_.unsound_concepts.push_back(concept_name);
    }
  }
  if (!truncated.empty()) MarkTruncated(std::move(truncated));
  return Status::OK();
}

void Evaluator::MarkTruncated(std::vector<std::string> concepts) {
  degraded_.deadline_truncated = true;
  std::vector<std::string>& out = degraded_.truncated_concepts;
  out.insert(out.end(), std::make_move_iterator(concepts.begin()),
             std::make_move_iterator(concepts.end()));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

Status Evaluator::Evaluate() {
  if (evaluated_) return Status::OK();
  Reset();
  if (token_.Expired()) {
    // Pre-expired token (zero deadline, or cancelled before start):
    // fail before fetching any extent or mutating anything, under
    // either failure policy — there is no partial answer to salvage.
    return DeadlineStatus(token_, "before evaluation started");
  }
  const Status status = EvaluateImpl();
  if (!status.ok() && token_.active()) {
    // Deadline/cancellation unwind contract: the store and stats are
    // left bit-identical to a never-started evaluation
    // (conformance family 9 checks exactly this).
    Reset();
  }
  return status;
}

Status Evaluator::EvaluateImpl() {
  OOINT_RETURN_IF_ERROR(LoadBaseFacts());
  // Built after the base load, where stratification always ran: built
  // before it, the graph's short-lived allocations left glibc trimming
  // and refaulting the heap after every connect (ten times the minor
  // page faults).
  const RuleGraph graph(rules_);
  OOINT_RETURN_IF_ERROR(graph.stratified());
  const int max_stratum = graph.max_stratum();
  stats_.strata = static_cast<size_t>(max_stratum) + 1;
  const FactMatcher matcher = MakeMatcher();

  // Deadline fired while loading base extents (kPartial; kStrict
  // unwound inside LoadBaseFacts): every derived concept is suspect
  // because no derivation ran at all. The base facts loaded so far are
  // genuine, so returning them is sound.
  if (degraded_.deadline_truncated) {
    MarkTruncated(graph.HeadsFrom(0));
    evaluated_ = true;
    return Status::OK();
  }

  // Stops derivation at a round boundary once the token expires:
  // kStrict unwinds with kDeadlineExceeded; kPartial marks every
  // concept heading a rule in an unfinished stratum (>= `stratum`)
  // truncated — lower strata completed, so their heads are exact.
  bool deadline_stop = false;
  auto StopAtDeadline = [&](int stratum) -> Status {
    if (failure_policy_ == FailurePolicy::kStrict) {
      return DeadlineStatus(token_, "during fixpoint evaluation");
    }
    MarkTruncated(graph.HeadsFrom(stratum));
    deadline_stop = true;
    return Status::OK();
  };

  // Per-rule join plans: the positions of positive fact literals (the
  // delta-restrictable ones), with their concepts interned up front,
  // plus the body orders. Plans are cached per (rule, stratum): the
  // stratum boundary is where extent estimates shift most, and
  // recomputing there keeps them fresh without per-round planner work.
  struct RulePlan {
    const Rule* rule;
    std::vector<std::pair<size_t, ConceptId>> positive;
    // Body order for the unrestricted first round (no delta literal).
    BodyPlan first_plan;
    // delta_plans[k] is the order for the round with the delta window
    // at positive[k].
    std::vector<BodyPlan> delta_plans;
  };

  for (int stratum = 0; stratum <= max_stratum; ++stratum) {
    const auto stratum_start = std::chrono::steady_clock::now();
    std::vector<RulePlan> active;
    for (size_t index : graph.RulesInStratum(stratum)) {
      const Rule& rule = rules_[index];
      RulePlan plan{&rule, {}, {}, {}};
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const Literal& literal = rule.body[i];
        if (literal.negated || literal.kind == Literal::Kind::kCompare) {
          continue;
        }
        plan.positive.emplace_back(
            i, store_.InternConcept(literal.concept_name()));
      }
      // Only the first (unrestricted) round's plan is computable now;
      // delta plans wait for the seed round to populate extents (a
      // stratum's own facts are invisible at stratum start, so their
      // estimates here would all be zero).
      plan.first_plan = ComputePlan(rule, -1, -1, {}, /*existence=*/true);
      active.push_back(std::move(plan));
    }

    if (strategy_ == EvalStrategy::kNaive) {
      // Textbook fixpoint: every rule over the whole universe, strict
      // left-to-right joins (ComputePlan's written order), linear
      // scans. Kept as the differential oracle for the semi-naive path.
      bool changed = true;
      while (changed) {
        // Each naive iteration is one bounded unit of derivation work
        // on the query's clock.
        token_.Charge(CancelToken::kRoundChargeMs);
        if (token_.Expired()) {
          OOINT_RETURN_IF_ERROR(StopAtDeadline(stratum));
          break;
        }
        changed = false;
        ++stats_.iterations;
        for (const RulePlan& plan : active) {
          JoinContext ctx;
          ctx.rule = plan.rule;
          ctx.plan = &plan.first_plan;
          ctx.use_index = false;
          size_t inserted = 0;
          OOINT_RETURN_IF_ERROR(ApplyRule(matcher, ctx, &inserted));
          if (inserted > 0) changed = true;
        }
      }
    } else {
      // Semi-naive rounds. The delta window of concept_id c in a round is
      // [prev[c], cur[c]) over c's extent ordinals; the first round of a
      // stratum seeds the delta with every fact visible so far (base
      // facts plus lower strata) and evaluates rules unrestricted.
      JoinScratch scratch;
      std::vector<std::uint32_t> prev;
      bool first = true;
      while (true) {
        // Round boundary: the only place the fixpoint looks at the
        // clock, so truncation is always at a whole-round granularity
        // (every fact derived so far is a genuine derivation). Each
        // round charges one bounded unit of virtual time — pure
        // derivation cannot outrun the deadline even when every fetch
        // was instantaneous.
        token_.Charge(CancelToken::kRoundChargeMs);
        if (token_.Expired()) {
          OOINT_RETURN_IF_ERROR(StopAtDeadline(stratum));
          break;
        }
        std::vector<std::uint32_t> cur(store_.concept_count());
        for (ConceptId c = 0; c < cur.size(); ++c) {
          cur[c] = static_cast<std::uint32_t>(store_.CountOf(c));
        }
        prev.resize(cur.size(), 0);
        size_t delta_total = 0;
        for (size_t c = 0; c < cur.size(); ++c) delta_total += cur[c] - prev[c];
        // The converged (empty) round is recorded too, so the trace
        // reads seed, growth..., 0.
        stats_.delta_sizes.push_back(delta_total);
        if (!first && delta_total == 0) break;
        ++stats_.iterations;

        // Delta plans, computed lazily at the first delta round and
        // cached for the rest of the stratum: by now the seed round has
        // run, so the estimates see the real post-seed cardinalities.
        if (!first) {
          for (RulePlan& plan : active) {
            if (plan.positive.empty() || !plan.delta_plans.empty()) continue;
            plan.delta_plans.reserve(plan.positive.size());
            for (const auto& [index, concept_id] : plan.positive) {
              plan.delta_plans.push_back(
                  ComputePlan(*plan.rule, static_cast<int>(index), -1, {},
                              /*existence=*/true));
            }
          }
        }

        for (const RulePlan& plan : active) {
          if (first) {
            JoinContext ctx;
            ctx.rule = plan.rule;
            ctx.plan = &plan.first_plan;
            ctx.scratch = &scratch;
            size_t inserted = 0;
            OOINT_RETURN_IF_ERROR(ApplyRule(matcher, ctx, &inserted));
            continue;
          }
          // A new instantiation must use at least one delta fact in some
          // positive position; run once per position with a non-empty
          // delta (rules without positive literals fired exhaustively in
          // the first round).
          for (size_t k = 0; k < plan.positive.size(); ++k) {
            const auto& [index, concept_id] = plan.positive[k];
            const std::uint32_t begin = prev[concept_id];
            const std::uint32_t end = cur[concept_id];
            if (begin >= end) continue;
            JoinContext ctx;
            ctx.rule = plan.rule;
            ctx.plan = &plan.delta_plans[k];
            ctx.scratch = &scratch;
            ctx.delta_literal = static_cast<int>(index);
            ctx.delta_begin = begin;
            ctx.delta_end = end;
            size_t inserted = 0;
            OOINT_RETURN_IF_ERROR(ApplyRule(matcher, ctx, &inserted));
          }
        }
        prev = std::move(cur);
        first = false;
      }
    }
    stats_.stratum_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - stratum_start)
            .count());
    if (deadline_stop) break;  // kPartial truncation: stop all strata
  }
  evaluated_ = true;
  return Status::OK();
}

std::vector<const Fact*> Evaluator::FactsOf(
    const std::string& concept_name) const {
  if (live_filter_ == nullptr) return store_.FactsOf(concept_name);
  // Incremental mode: the extent minus the logically deleted facts.
  std::vector<const Fact*> out;
  const ConceptId id = store_.FindConcept(concept_name);
  if (id == kNoConcept) return out;
  const size_t count = store_.CountOf(id);
  for (std::uint32_t ordinal = 0; ordinal < count; ++ordinal) {
    const FactId fid = store_.IdAt(id, ordinal);
    if (fid < live_filter_->size() && !(*live_filter_)[fid]) continue;
    out.push_back(store_.FactAt(id, ordinal));
  }
  return out;
}

BodyPlan Evaluator::ComputePlan(const Rule& rule, int delta_literal,
                                int pivot_literal,
                                std::set<std::string> initial_bound,
                                bool existence) const {
  PlannerInput in;
  in.rule = &rule;
  if (strategy_ == EvalStrategy::kNaive ||
      planner_mode_ == PlannerMode::kFixedSip) {
    return PlanBody(in, PlannerMode::kFixedSip);
  }
  in.delta_literal = delta_literal;
  in.pivot_literal = pivot_literal;
  in.initial_bound = std::move(initial_bound);
  in.split_existence = existence && HeadReadsOnlyBindings(rule);
  in.extent_cost.assign(rule.body.size(), -1.0);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& literal = rule.body[i];
    if (literal.kind == Literal::Kind::kCompare || literal.negated) continue;
    const std::string& name = literal.concept_name();
    const ConceptId id = store_.FindConcept(name);
    double est =
        id == kNoConcept ? 0.0 : static_cast<double>(store_.CountOf(id));
    // Magic guard extents hold only the demanded bindings, and joining
    // through one binds the adorned variables of its rule — better
    // selectivity than the raw count suggests.
    if (IsMagicConceptName(name)) est *= 0.25;
    in.extent_cost[i] = est;
  }
  BodyPlan plan = PlanBody(in, PlannerMode::kCostBased);
  // stats_ is written directly: plans are only computed in serial
  // sections (stratum starts, the incremental driver).
  if (plan.reordered) ++stats_.plan_reorders;
  return plan;
}

void Evaluator::CollectCandidates(const JoinContext& ctx, size_t literal_index,
                                  const Literal& literal,
                                  const Bindings& bindings,
                                  std::vector<std::uint32_t>* candidates,
                                  ConceptId* concept_id) const {
  // Counter sink: query-local under concurrent Query, the evaluator's
  // own (mutable) stats otherwise.
  Stats& counters = ctx.stats != nullptr ? *ctx.stats : stats_;
  *concept_id = store_.FindConcept(literal.concept_name());
  if (*concept_id == kNoConcept) return;
  if (ctx.inc != nullptr &&
      static_cast<int>(literal_index) == ctx.inc->pivot_literal) {
    // Telescoped incremental join: this position sees exactly the pivot.
    const FactId pivot = ctx.inc->pivot_fact;
    if (pivot != kNoFact && store_.ConceptOf(pivot) == *concept_id) {
      candidates->push_back(store_.OrdinalOf(pivot));
    }
    return;
  }
  std::uint32_t begin = 0;
  std::uint32_t end = static_cast<std::uint32_t>(store_.CountOf(*concept_id));
  if (static_cast<int>(literal_index) == ctx.delta_literal) {
    begin = ctx.delta_begin;
    end = std::min(end, ctx.delta_end);
  }
  if (begin >= end) return;

  // Scratch for the kernel path: the caller's driver-owned buffers, or
  // call-local ones on cold paths that never wired any.
  JoinScratch local_scratch;
  JoinScratch& scratch =
      ctx.scratch != nullptr ? *ctx.scratch : local_scratch;
  std::vector<PostingsCursor>& cursors = scratch.cursors;
  cursors.clear();
  size_t best_index = 0;
  if (ctx.use_index) {
    // OID probes are exact only without a data-mapping registry (mapped
    // OIDs compare equal without being bytewise equal); value probes are
    // likewise skipped for OID-kind values under mappings and for
    // set-kind values (the matcher compares sets element-wise).
    auto probeable = [this](const Value& v) {
      if (v.kind() == ValueKind::kSet) return false;
      if (v.kind() == ValueKind::kOid && mappings_ != nullptr) return false;
      return true;
    };
    auto consider = [&](const std::string& attr, const Value& v) {
      if (!probeable(v)) return;
      // An empty cursor on a bound position is an empty join; otherwise
      // the smallest posting list seeds the candidates, first-considered
      // on ties, and every other probeable cursor is intersected in.
      cursors.push_back(store_.Probe(*concept_id, attr, v));
      ++counters.index_probes;
      if (cursors.back().count() < cursors[best_index].count()) {
        best_index = cursors.size() - 1;
      }
    };
    if (literal.kind == Literal::Kind::kOTerm) {
      Value object;
      if (ResolveArg(literal.oterm.object, bindings, &object) &&
          object.kind() == ValueKind::kOid && mappings_ == nullptr) {
        store_.ProbeOid(*concept_id, object.AsOid(), candidates);
        candidates->erase(std::lower_bound(candidates->begin(),
                                           candidates->end(), end),
                          candidates->end());
        candidates->erase(candidates->begin(),
                          std::lower_bound(candidates->begin(),
                                           candidates->end(), begin));
        ++counters.index_probes;
        return;
      }
      for (const AttrDescriptor& d : literal.oterm.attrs) {
        std::string attr = d.attribute;
        if (d.attr_is_variable) {
          auto it = bindings.find(d.attribute);
          if (it == bindings.end() ||
              it->second.kind() != ValueKind::kString) {
            continue;
          }
          attr = it->second.AsString();
        }
        Value v;
        if (!ResolveArg(d.value, bindings, &v)) continue;
        consider(attr, v);
      }
    } else {
      for (size_t i = 0; i < literal.args.size(); ++i) {
        Value v;
        if (!ResolveArg(literal.args[i], bindings, &v)) continue;
        consider(StrCat(i), v);
      }
    }
  }

  if (!cursors.empty()) {
    // Bulk-decode the smallest cursor's window, then intersect every
    // other probeable cursor in. Each intersection removes only
    // ordinals the matcher would reject anyway (a posting list contains
    // every true match for its (attr, value) key; hash collisions are
    // re-verified downstream), and it preserves order and duplicates, so
    // the derived fact stream is the one a per-candidate check yields.
    counters.cursor_steps +=
        DecodeWindow(cursors[best_index], begin, end, candidates);
    if (cursors.size() > 1 && !candidates->empty()) {
      JoinKernelStats ks;
      for (size_t i = 0; i < cursors.size(); ++i) {
        if (i == best_index) continue;
        if (candidates->empty()) break;
        // A cursor vastly larger than the survivor set costs more to
        // decode than the matcher calls it could save.
        if (cursors[i].count() > kIntersectBudget * (candidates->size() + 1)) {
          continue;
        }
        FilterByCursor(candidates, cursors[i], begin, end, &scratch, &ks);
      }
      counters.cursor_steps += ks.cursor_steps;
      counters.merge_steps += ks.merge_steps;
      counters.gallop_steps += ks.gallop_steps;
    }
    return;
  }
  ++counters.index_scans;
  candidates->resize(end - begin);
  std::iota(candidates->begin(), candidates->end(), begin);
}

Status Evaluator::SolveBody(const FactMatcher& matcher, const JoinContext& ctx,
                            const std::vector<CompiledOTerm>& compiled,
                            size_t depth, Solution solution,
                            std::vector<Solution>* solutions) const {
  const std::vector<Literal>& body = ctx.rule->body;
  if (depth == (ctx.witness_end != 0 ? ctx.witness_end : body.size())) {
    solutions->push_back(std::move(solution));
    return Status::OK();
  }
  // The plan fixes the literal of every depth: a successful match binds
  // every variable of its literal, so which variables are bound is a
  // static function of the consumed prefix, and the planner's symbolic
  // replay chose the order with zero per-row work.
  const size_t pick = ctx.plan->order[depth];
  const Literal& literal = body[pick];
  // Candidate buffer: the scratch pool's depth slot when the driver
  // wired one (reused across every solution row at this depth; the pool
  // is pre-sized so the reference survives deeper frames), else a local
  // vector as before.
  std::vector<std::uint32_t> local_candidates;
  auto candidate_buffer = [&]() -> std::vector<std::uint32_t>& {
    if (ctx.scratch != nullptr) {
      std::vector<std::uint32_t>& c = ctx.scratch->CandidatesAt(depth);
      c.clear();
      return c;
    }
    return local_candidates;
  };
  auto recurse = [&](Solution next) {
    return SolveBody(matcher, ctx, compiled, depth + 1, std::move(next),
                     solutions);
  };
  // Incremental world filter: whether this position may see the fact.
  auto admitted = [&](ConceptId concept_id, std::uint32_t ordinal) {
    return ctx.inc == nullptr || !ctx.inc->admit ||
           ctx.inc->admit(pick, store_.IdAt(concept_id, ordinal));
  };
  Status status = Status::OK();
  // An existence check is done at its first solution.
  auto stop = [&] {
    return !status.ok() || (ctx.witness_end != 0 && !solutions->empty());
  };
  switch (literal.kind) {
    case Literal::Kind::kOTerm: {
      ConceptId concept_id = kNoConcept;
      std::vector<std::uint32_t>& candidates = candidate_buffer();
      CollectCandidates(ctx, pick, literal, solution.bindings, &candidates,
                        &concept_id);
      // This depth's frame, seeded with the solution's bindings: a
      // candidate binds handles into it, and only a full match builds
      // the next solution's Bindings.
      MatchFrame own_frame;
      MatchFrame& frame =
          ctx.scratch != nullptr ? ctx.scratch->FrameAt(depth) : own_frame;
      frame.Reset(&compiled[pick], &solution.bindings);
      if (!literal.negated) {
        for (std::uint32_t ordinal : candidates) {
          if (!admitted(concept_id, ordinal)) continue;
          const FactView fact = store_.ViewAt(concept_id, ordinal);
          matcher.Match(fact, &frame, [&](const MatchFrame& match) {
            if (stop()) return;
            Solution next;
            next.bindings = match.ToBindings();
            next.matched = solution.matched;
            next.matched[pick] = fact;
            status = recurse(std::move(next));
          });
          if (stop()) break;
        }
      } else {
        bool found = false;
        for (std::uint32_t ordinal : candidates) {
          if (!admitted(concept_id, ordinal)) continue;
          matcher.Match(store_.ViewAt(concept_id, ordinal), &frame,
                        [&](const MatchFrame&) { found = true; });
          if (found) break;
        }
        if (!found) status = recurse(std::move(solution));
      }
      break;
    }
    case Literal::Kind::kPredicate: {
      ConceptId concept_id = kNoConcept;
      std::vector<std::uint32_t>& candidates = candidate_buffer();
      CollectCandidates(ctx, pick, literal, solution.bindings, &candidates,
                        &concept_id);
      if (!literal.negated) {
        for (std::uint32_t ordinal : candidates) {
          if (!admitted(concept_id, ordinal)) continue;
          const FactView fact = store_.ViewAt(concept_id, ordinal);
          Bindings next = solution.bindings;
          if (matcher.MatchArgs(literal.args, fact, &next)) {
            Solution s = solution;
            s.bindings = std::move(next);
            status = recurse(std::move(s));
            if (stop()) break;
          }
        }
      } else {
        bool found = false;
        for (std::uint32_t ordinal : candidates) {
          if (!admitted(concept_id, ordinal)) continue;
          Bindings next = solution.bindings;
          if (matcher.MatchArgs(literal.args,
                                store_.ViewAt(concept_id, ordinal), &next)) {
            found = true;
            break;
          }
        }
        if (!found) status = recurse(std::move(solution));
      }
      break;
    }
    case Literal::Kind::kCompare: {
      Value lhs;
      Value rhs;
      const bool lhs_ok = ResolveArg(literal.cmp_lhs, solution.bindings, &lhs);
      const bool rhs_ok = ResolveArg(literal.cmp_rhs, solution.bindings, &rhs);
      if (literal.cmp_op == CompareOp::kEq && !literal.negated &&
          lhs_ok != rhs_ok) {
        // Equality with exactly one bound side binds the other.
        const TermArg& unbound = lhs_ok ? literal.cmp_rhs : literal.cmp_lhs;
        const Value& value = lhs_ok ? lhs : rhs;
        if (unbound.is_variable()) {
          Solution next = solution;
          next.bindings[unbound.var] = value;
          status = recurse(std::move(next));
        }
        break;
      }
      if (!lhs_ok || !rhs_ok) {
        status = Status::FailedPrecondition(StrCat(
            "comparison over unbound variables: ", literal.ToString()));
        break;
      }
      bool truth = false;
      if (literal.cmp_op == CompareOp::kEq) {
        truth = matcher.ValuesEqual(lhs, rhs);
      } else if (literal.cmp_op == CompareOp::kNe) {
        truth = !matcher.ValuesEqual(lhs, rhs);
      } else {
        Result<bool> cmp = Compare(lhs, literal.cmp_op, rhs);
        if (!cmp.ok()) {
          status = cmp.status();
          break;
        }
        truth = cmp.value();
      }
      if (truth != literal.negated) status = recurse(std::move(solution));
      break;
    }
  }
  return status;
}

Status Evaluator::ApplyRule(const FactMatcher& matcher, const JoinContext& ctx,
                            size_t* inserted) {
  ++stats_.rule_applications;
  std::vector<Solution> solutions;
  OOINT_RETURN_IF_ERROR(SolveRule(matcher, ctx, &solutions));
  return InsertSolutions(*ctx.rule, matcher, solutions, inserted);
}

Status Evaluator::SolveRule(const FactMatcher& matcher, const JoinContext& ctx,
                            std::vector<Solution>* solutions) const {
  const Rule& rule = *ctx.rule;
  // Pre-size the depth pool so CandidatesAt never reallocates while
  // outer recursion frames hold references into it.
  if (ctx.scratch != nullptr) ctx.scratch->EnsureDepths(rule.body.size());
  const std::vector<CompiledOTerm> compiled = CompileBody(rule);
  Solution init;
  init.matched.assign(rule.body.size(), FactView());
  // Existence components bind nothing the head or another component
  // reads, so one solution of each stands for all of them (DESIGN.md
  // 4c); a component without one leaves the rule nothing to derive.
  size_t depth = 0;
  for (const std::uint32_t end : ctx.plan->existence_ends) {
    JoinContext check = ctx;
    check.witness_end = end;
    std::vector<Solution> witness;
    OOINT_RETURN_IF_ERROR(
        SolveBody(matcher, check, compiled, depth, init, &witness));
    if (witness.empty()) return Status::OK();
    depth = end;
  }
  return SolveBody(matcher, ctx, compiled, depth, std::move(init), solutions);
}

std::vector<CompiledOTerm> Evaluator::CompileBody(const Rule& rule) {
  std::vector<CompiledOTerm> compiled;
  compiled.reserve(rule.body.size());
  for (const Literal& literal : rule.body) compiled.emplace_back(literal.oterm);
  return compiled;
}

Result<Fact> Evaluator::BuildHeadFact(const Rule& rule,
                                     const FactMatcher& matcher,
                                     const Solution& solution) {
  const Literal& head = rule.head.front();
  Fact fact;
  if (head.kind == Literal::Kind::kPredicate) {
    fact.concept_name = head.pred_name;
    for (size_t i = 0; i < head.args.size(); ++i) {
      Value v;
      if (!ResolveArg(head.args[i], solution.bindings, &v)) {
        return Status::FailedPrecondition(
            StrCat("unbound head argument in rule: ", rule.ToString()));
      }
      fact.attrs[StrCat(i)] = std::move(v);
    }
    return fact;
  }

  // O-term head.
  fact.concept_name = head.oterm.class_name;

  // Instantiate descriptors; nested descriptors flatten to dotted
  // attribute names ("book.ISBN").
  Status flatten_status = Status::OK();
  auto flatten = [&](auto&& self, const std::vector<AttrDescriptor>& ds,
                     const std::string& prefix) -> void {
    for (const AttrDescriptor& d : ds) {
      if (!flatten_status.ok()) return;
      std::string name = d.attribute;
      if (d.attr_is_variable) {
        auto it = solution.bindings.find(d.attribute);
        if (it == solution.bindings.end() ||
            it->second.kind() != ValueKind::kString) {
          flatten_status = Status::FailedPrecondition(
              StrCat("unbound attribute-name variable '", d.attribute,
                     "' in rule head"));
          return;
        }
        name = it->second.AsString();
      }
      const std::string full = prefix.empty() ? name : StrCat(prefix, ".", name);
      if (d.value.is_nested()) {
        self(self, d.value.nested, full);
        continue;
      }
      Value v;
      if (d.value.is_constant()) {
        v = d.value.constant;
      } else {
        auto it = solution.bindings.find(d.value.var);
        if (it == solution.bindings.end()) {
          if (!d.value.var.empty() && d.value.var[0] == '_') {
            continue;  // existential attribute: leave unset
          }
          flatten_status = Status::FailedPrecondition(
              StrCat("unbound head variable '", d.value.var, "'"));
          return;
        }
        v = it->second;
      }
      fact.attrs[full] = std::move(v);
    }
  };
  flatten(flatten, head.oterm.attrs, "");
  OOINT_RETURN_IF_ERROR(flatten_status);

  // Object position: bound variable / constant OID, or a skolem OID
  // for existential ('_'-prefixed or unbound) object variables.
  const Value* self = nullptr;
  if (head.oterm.object.is_constant()) {
    if (head.oterm.object.constant.kind() == ValueKind::kOid) {
      self = &head.oterm.object.constant;
    }
  } else if (head.oterm.object.is_variable()) {
    auto it = solution.bindings.find(head.oterm.object.var);
    if (it != solution.bindings.end() &&
        it->second.kind() == ValueKind::kOid) {
      self = &it->second;
    }
  }
  if (self == nullptr) {
    // Derived entities are identified by their attribute values; the
    // skolem OID is content-addressed (the hash of those values) so
    // both fixpoint strategies — and the incremental engine — assign
    // identical OIDs regardless of derivation order.
    fact.oid = Oid("derived", "ooint", "global", fact.concept_name,
                   HashFactAttrs(fact));
    return fact;
  }
  fact.oid = self->AsOid();
  // Merge the attributes of every matched body fact describing the
  // same entity, so membership rules (<x: IS_AB> <= <x: A>, ...) carry
  // the entity's data into the integrated class. Slots are in body
  // order, keeping the merge independent of the join order.
  for (const FactView& matched : solution.matched) {
    if (!matched.valid() || matched.oid_empty()) continue;
    if (!matcher.ValuesEqual(*self, matched.oid_handle())) continue;
    const size_t count = matched.attr_count();
    for (size_t i = 0; i < count; ++i) {
      std::string name(matched.attr_name(i));
      if (fact.attrs.find(name) == fact.attrs.end()) {
        fact.attrs.emplace(std::move(name),
                           matched.attr_value(i).Materialize());
      }
    }
  }
  return fact;
}

Status Evaluator::InsertSolutions(const Rule& rule, const FactMatcher& matcher,
                                  const std::vector<Solution>& solutions,
                                  size_t* inserted) {
  for (const Solution& solution : solutions) {
    OOINT_ASSIGN_OR_RETURN(Fact head, BuildHeadFact(rule, matcher, solution));
    if (store_.Insert(std::move(head)) != kNoFact) {
      ++stats_.derived_facts;
      ++*inserted;
    }
  }
  return Status::OK();
}

void Evaluator::QueryCandidates(const Literal& literal, ConceptId* concept_id,
                                std::vector<std::uint32_t>* candidates) const {
  // The candidate choice (value-index probe vs. ordinal scan) is made
  // once, up front; only the unification of each candidate is deferred
  // to the pulls. Counters tick into a local Stats merged under a lock,
  // so concurrent queries on one evaluated federation never race on
  // stats_.
  Stats local;
  JoinScratch scratch;
  JoinContext ctx;
  ctx.stats = &local;
  ctx.scratch = &scratch;
  CollectCandidates(ctx, 0, literal, Bindings(), candidates, concept_id);
  std::lock_guard<std::mutex> lock(*stats_mu_);
  stats_.AddJoinCounters(local);
}

Result<std::vector<Bindings>> Evaluator::Query(const OTerm& pattern) const {
  if (!evaluated_) {
    return Status::FailedPrecondition("call Evaluate() before Query()");
  }
  // The stream OpenQueryStream returns, on the stack; the store keeps
  // each distinct row's handles, and only those rows are built.
  Literal literal = Literal::OfOTerm(pattern);
  ConceptId concept_id = kNoConcept;
  std::vector<std::uint32_t> candidates;
  QueryCandidates(literal, &concept_id, &candidates);
  QueryStream stream(std::move(literal.oterm), MakeMatcher(), &store_,
                     live_filter_, concept_id, std::move(candidates));
  DistinctRows distinct(&stream.vars());
  const ValueHandle* row = nullptr;
  while (stream.Next(&row)) distinct.Insert(row);
  return distinct.TakeRows();
}

Result<std::unique_ptr<RowSource>> Evaluator::OpenQueryStream(
    const OTerm& pattern) const {
  if (!evaluated_) {
    return Status::FailedPrecondition(
        "call Evaluate() before OpenQueryStream()");
  }
  Literal literal = Literal::OfOTerm(pattern);
  ConceptId concept_id = kNoConcept;
  std::vector<std::uint32_t> candidates;
  QueryCandidates(literal, &concept_id, &candidates);
  return std::unique_ptr<RowSource>(
      new QueryStream(std::move(literal.oterm), MakeMatcher(), &store_,
                      live_filter_, concept_id, std::move(candidates)));
}

Evaluator::DemandPlan Evaluator::PlanDemand(const OTerm& pattern) const {
  DemandPlan plan;
  const RuleGraph graph(rules_);
  plan.program = MagicRewrite(graph, ExtractGoalBinding(pattern));
  // Relevance pruning: bind (and later fetch) only the concepts the
  // goal can reach through rule bodies. Nested descriptors navigate
  // stored OIDs to arbitrary concepts, so they force full binding.
  const std::vector<std::string>& reachable = plan.program.reachable_concepts;
  std::set<std::string> contacted;
  std::set<std::string> pruned;
  for (size_t i = 0; i < bindings_decl_.size(); ++i) {
    const ConceptBinding& binding = bindings_decl_[i];
    const std::string& agent = sources_[binding.source_index].schema_name;
    if (plan.program.relevance_safe &&
        !std::binary_search(reachable.begin(), reachable.end(),
                            binding.concept_name)) {
      pruned.insert(agent);
      continue;
    }
    plan.bindings.push_back(i);
    contacted.insert(agent);
  }
  for (const std::string& agent : contacted) pruned.erase(agent);
  plan.contacted_agents.assign(contacted.begin(), contacted.end());
  plan.pruned_agents.assign(pruned.begin(), pruned.end());
  return plan;
}

Result<Evaluator::DemandOutcome> Evaluator::EvaluateDemand(
    const OTerm& pattern, const CancelToken& token) const {
  if (token.Expired()) {
    // Pre-expired (zero deadline / already-cancelled) queries fail
    // before the magic rewrite, before any source is contacted and
    // before any cache could be touched.
    return DeadlineStatus(token, "before demand evaluation started");
  }
  DemandPlan plan = PlanDemand(pattern);
  MagicProgram& program = plan.program;
  DemandOutcome out;

  auto sub = std::make_shared<Evaluator>();
  sub->strategy_ = strategy_;
  sub->failure_policy_ = failure_policy_;
  sub->planner_mode_ = planner_mode_;  // demand joins plan like the parent
  sub->mappings_ = mappings_;
  sub->token_ = token;  // the query's deadline bounds the sub-fixpoint
  sub->pool_ = pool_;  // demand fetches overlap like the parent's
  sub->segments_ = segments_;  // and load through the same segments
  for (const Source& source : sources_) {
    sub->AddBorrowedSource(source.schema_name, source.source);
  }
  // Source indices transfer unchanged: sub's sources mirror ours.
  for (size_t i : plan.bindings) {
    sub->bindings_decl_.push_back(bindings_decl_[i]);
  }

  if (program.applied) {
    for (Rule& rule : program.rules) {
      OOINT_RETURN_IF_ERROR(sub->AddRule(std::move(rule)));
    }
    for (Fact& seed : program.seeds) sub->AddFact(std::move(seed));
  } else {
    const std::vector<std::string>& reachable = program.reachable_concepts;
    for (const Rule& rule : rules_) {
      if (program.relevance_safe &&
          !std::binary_search(reachable.begin(), reachable.end(),
                              rule.head.front().concept_name())) {
        continue;
      }
      OOINT_RETURN_IF_ERROR(sub->AddRule(rule));
    }
  }
  for (const Fact& seed : seed_facts_) sub->AddFact(seed);

  OOINT_RETURN_IF_ERROR(sub->Evaluate());
  OOINT_ASSIGN_OR_RETURN(out.rows, sub->Query(pattern));

  // Outward degradation: drop internal magic predicates, mirror the
  // pruned agents in (distinct from fault-skipped ones).
  out.degraded = sub->degraded();
  auto drop_magic = [](std::vector<std::string>* names) {
    names->erase(std::remove_if(names->begin(), names->end(),
                                [](const std::string& name) {
                                  return IsMagicConceptName(name);
                                }),
                 names->end());
  };
  drop_magic(&out.degraded.incomplete_concepts);
  drop_magic(&out.degraded.unsound_concepts);
  drop_magic(&out.degraded.truncated_concepts);
  out.degraded.pruned_agents = std::move(plan.pruned_agents);
  out.reads = std::move(sub->reads_);
  out.stats = sub->stats();
  out.sub = std::move(sub);
  return out;
}

}  // namespace ooint
