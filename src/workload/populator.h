#ifndef OOINT_WORKLOAD_POPULATOR_H_
#define OOINT_WORKLOAD_POPULATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/instance_store.h"
#include "model/schema.h"
#include "model/value.h"

namespace ooint {

/// One object of a synthetic extension, in a store-independent form:
/// scalar attribute values plus aggregation targets named by *index*
/// into the owning StoreSpec. The indirection is what makes generated
/// populations shrinkable — the conformance shrinker drops ObjectSpecs
/// and remaps indexes without ever touching OIDs.
struct ObjectSpec {
  std::string class_name;
  std::map<std::string, Value> attrs;
  /// Aggregation function name -> indexes of target ObjectSpecs. Targets
  /// must precede the referencing object (index < its own position);
  /// ApplySpec rejects forward references.
  std::map<std::string, std::vector<size_t>> agg_targets;
};

/// A full synthetic extension of one schema.
struct StoreSpec {
  std::vector<ObjectSpec> objects;

  size_t size() const { return objects.size(); }
};

/// Parameters of the random instance generator.
struct PopulateOptions {
  /// Total object count. Every class receives at least one object when
  /// num_objects >= the schema's class count.
  size_t num_objects = 40;
  /// Attribute values are drawn from a pool of this many distinct
  /// values per kind, so keys collide across stores and rule joins have
  /// matches.
  size_t value_pool = 8;
  std::uint64_t seed = 13;
};

/// Generates a deterministic random population of `schema`:
///  - objects are created class-by-class in class-index order (so
///    aggregation targets, which point at lower-indexed classes in
///    generated schemas, always precede their sources);
///  - every scalar attribute gets a value of its declared kind drawn
///    from the pool; multi-valued attributes get 0..2 element sets;
///  - every aggregation function gets targets consistent with its
///    cardinality constraint: range-side `1` means exactly one target
///    per source, range-side `n` means 1..3; domain-side `1` makes the
///    assignment injective (no target shared between sources; sources
///    beyond the range extent get none, unless the constraint is
///    mandatory, in which case generation fails).
Result<StoreSpec> GenerateInstances(const Schema& schema,
                                    const PopulateOptions& options);

/// Materializes `spec` into `store` (whose schema must declare every
/// referenced class, attribute and aggregation). Returns the OIDs
/// assigned, indexed like spec.objects.
Result<std::vector<Oid>> ApplySpec(const StoreSpec& spec,
                                   InstanceStore* store);

/// Renders `spec` in the data-definition language: a sequence of
/// `insert <class> as o<i> { ... }` blocks that InstanceParser::Load
/// accepts, with aggregation targets as ref(o<j>) references.
std::string StoreSpecToText(const StoreSpec& spec);

/// The generators' seeded draw: value `index` of stream `seed`
/// (splitmix64). Generated worlds, populations and delta traces all
/// draw through it, so their pinned outputs share one definition.
std::uint64_t Draw(std::uint64_t seed, std::uint64_t index);

/// One pool value of `kind` from `draw`, the pool holding `pool` values
/// per kind. Pools are schema-independent, so keys generated for two
/// different stores (or a store and a delta) collide and cross-schema
/// joins (derivation rules matching on key equality) find partners.
Value PoolValue(ValueKind kind, std::uint64_t draw, size_t pool);

}  // namespace ooint

#endif  // OOINT_WORKLOAD_POPULATOR_H_
