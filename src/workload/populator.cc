#include "workload/populator.h"

#include <cstdio>
#include <set>

#include "common/hash.h"
#include "common/string_util.h"

namespace ooint {

std::uint64_t Draw(std::uint64_t seed, std::uint64_t index) {
  return SplitMix64(seed ^ (index * 0x2545f4914f6cdd1dULL));
}

Value PoolValue(ValueKind kind, std::uint64_t draw, size_t pool) {
  const std::uint64_t d = draw % (pool == 0 ? 1 : pool);
  switch (kind) {
    case ValueKind::kString:
      return Value::String(StrCat("k", d));
    case ValueKind::kInteger:
      return Value::Integer(static_cast<std::int64_t>(d));
    case ValueKind::kReal:
      return Value::Real(static_cast<double>(d) + 0.5);
    case ValueKind::kBoolean:
      return Value::Boolean(d % 2 == 0);
    case ValueKind::kCharacter:
      return Value::Character(static_cast<char>('a' + (d % 26)));
    case ValueKind::kDate:
      return Value::OfDate({2000 + static_cast<int>(d % 30),
                            1 + static_cast<int>(draw % 12),
                            1 + static_cast<int>((draw >> 8) % 28)});
    default:
      return Value::Null();
  }
}

Result<StoreSpec> GenerateInstances(const Schema& schema,
                                    const PopulateOptions& options) {
  if (!schema.finalized()) {
    return Status::FailedPrecondition("schema must be finalized");
  }
  const size_t n = schema.NumClasses();
  // Objects per class: one each (coverage) while the budget lasts, the
  // remainder spread by seeded draws.
  std::vector<size_t> counts(n, 0);
  for (size_t c = 0; c < n && c < options.num_objects; ++c) counts[c] = 1;
  for (size_t extra = n; extra < options.num_objects; ++extra) {
    counts[Draw(options.seed, extra) % n] += 1;
  }

  StoreSpec spec;
  spec.objects.reserve(options.num_objects);
  // Objects in class-index order: generated schemas aggregate towards
  // lower-indexed classes (ref_parent), so targets always precede their
  // sources, which is what ApplySpec requires.
  std::vector<std::vector<size_t>> extent(n);  // class -> object indexes
  for (size_t c = 0; c < n; ++c) {
    const ClassDef& class_def = schema.class_def(static_cast<ClassId>(c));
    for (size_t k = 0; k < counts[c]; ++k) {
      const size_t index = spec.objects.size();
      ObjectSpec object;
      object.class_name = class_def.name();
      size_t attr_index = 0;
      for (const Attribute& attr : class_def.attributes()) {
        const std::uint64_t d =
            Draw(options.seed, 0x10001ULL + index * 131ULL + attr_index);
        ++attr_index;
        if (attr.type.is_class()) continue;  // class-typed: left unset
        if (attr.multi_valued) {
          std::vector<Value> elements;
          const size_t count = d % 3;  // 0..2 elements
          for (size_t e = 0; e < count; ++e) {
            elements.push_back(PoolValue(attr.type.scalar,
                                         Draw(options.seed, d + e + 1),
                                         options.value_pool));
          }
          object.attrs[attr.name] = Value::Set(std::move(elements));
        } else {
          object.attrs[attr.name] =
              PoolValue(attr.type.scalar, d, options.value_pool);
        }
      }
      extent[c].push_back(index);
      spec.objects.push_back(std::move(object));
    }
  }

  // Aggregation targets, respecting the cardinality constraints.
  for (size_t c = 0; c < n; ++c) {
    const ClassDef& class_def = schema.class_def(static_cast<ClassId>(c));
    for (const AggregationFunction& fn : class_def.aggregations()) {
      const ClassId range = schema.FindClass(fn.range_class);
      if (range == kInvalidClassId) continue;
      // Collect candidate targets that precede every source of class c
      // (sources of class c start after all of range's objects only
      // when range < c; otherwise restrict per source below).
      const std::vector<size_t>& targets = extent[static_cast<size_t>(range)];
      // Domain-side `1`: each target serves at most one source.
      const bool injective = fn.cardinality.domain() == Cardinality::Mult::kOne;
      const bool single = fn.cardinality.range() == Cardinality::Mult::kOne;
      size_t next_unused = 0;
      for (size_t source_pos = 0; source_pos < extent[c].size();
           ++source_pos) {
        const size_t source = extent[c][source_pos];
        const std::uint64_t d =
            Draw(options.seed, 0x20002ULL + source * 977ULL);
        const size_t want = single ? 1 : 1 + d % 3;
        std::set<size_t> chosen;
        for (size_t t = 0; t < want; ++t) {
          size_t target;
          if (injective) {
            // Skip forward to the next unused target.
            while (next_unused < targets.size() &&
                   targets[next_unused] >= source) {
              ++next_unused;
            }
            if (next_unused >= targets.size()) break;  // range exhausted
            target = targets[next_unused++];
          } else {
            if (targets.empty()) break;
            target = targets[(d >> (8 * t)) % targets.size()];
            if (target >= source) continue;  // keep targets-before-sources
          }
          chosen.insert(target);
        }
        if (chosen.empty() && fn.cardinality.mandatory()) {
          return Status::InvalidArgument(
              StrCat("mandatory aggregation ", class_def.name(), ".",
                     fn.name, " cannot be satisfied: range extent of ",
                     fn.range_class, " exhausted"));
        }
        if (!chosen.empty()) {
          spec.objects[source].agg_targets[fn.name] =
              std::vector<size_t>(chosen.begin(), chosen.end());
        }
      }
    }
  }
  return spec;
}

Result<std::vector<Oid>> ApplySpec(const StoreSpec& spec,
                                   InstanceStore* store) {
  std::vector<Oid> oids;
  oids.reserve(spec.objects.size());
  for (size_t i = 0; i < spec.objects.size(); ++i) {
    const ObjectSpec& object_spec = spec.objects[i];
    for (const auto& [fn, targets] : object_spec.agg_targets) {
      for (size_t target : targets) {
        if (target >= i) {
          return Status::InvalidArgument(
              StrCat("object ", i, " aggregation ", fn,
                     " references object ", target,
                     " which does not precede it"));
        }
      }
    }
    Result<Object*> created = store->NewObject(object_spec.class_name);
    OOINT_RETURN_IF_ERROR(created.status());
    Object* object = created.value();
    for (const auto& [name, value] : object_spec.attrs) {
      object->Set(name, value);
    }
    for (const auto& [fn, targets] : object_spec.agg_targets) {
      for (size_t target : targets) {
        object->AddAggTarget(fn, oids[target]);
      }
    }
    oids.push_back(object->oid());
  }
  return oids;
}

namespace {

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Renders one value in the data-definition language (the syntax
/// InstanceParser::Load accepts).
std::string RenderValue(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kString:
      return EscapeString(value.AsString());
    case ValueKind::kInteger:
      return std::to_string(value.AsInteger());
    case ValueKind::kReal: {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.6f", value.AsReal());
      return buffer;
    }
    case ValueKind::kBoolean:
      return value.AsBoolean() ? "true" : "false";
    case ValueKind::kCharacter:
      return EscapeString(std::string(1, value.AsCharacter()));
    case ValueKind::kDate: {
      const Date& d = value.AsDate();
      return StrCat("date(", d.year, ", ", d.month, ", ", d.day, ")");
    }
    case ValueKind::kSet: {
      std::string out = "{";
      bool first = true;
      for (const Value& element : value.AsSet()) {
        if (!first) out += ", ";
        first = false;
        out += RenderValue(element);
      }
      return out + "}";
    }
    default:
      return "";  // Null / OID attribute values are skipped by the caller
  }
}

}  // namespace

std::string StoreSpecToText(const StoreSpec& spec) {
  std::string out;
  for (size_t i = 0; i < spec.objects.size(); ++i) {
    const ObjectSpec& object = spec.objects[i];
    out += StrCat("insert ", object.class_name, " as o", i, " {\n");
    for (const auto& [name, value] : object.attrs) {
      if (value.is_null() || value.kind() == ValueKind::kOid) continue;
      out += StrCat("  ", name, ": ", RenderValue(value), ";\n");
    }
    for (const auto& [fn, targets] : object.agg_targets) {
      if (targets.empty()) continue;
      if (targets.size() == 1) {
        out += StrCat("  ", fn, ": ref(o", targets.front(), ");\n");
      } else {
        out += StrCat("  ", fn, ": {");
        for (size_t t = 0; t < targets.size(); ++t) {
          if (t > 0) out += ", ";
          out += StrCat("ref(o", targets[t], ")");
        }
        out += "};\n";
      }
    }
    out += "}\n";
  }
  return out;
}

}  // namespace ooint
