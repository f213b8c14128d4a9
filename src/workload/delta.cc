#include "workload/delta.h"

#include "common/string_util.h"

namespace ooint {

namespace {

/// A fresh scalar-only object of class `id`: every non-class-typed
/// attribute gets a pool value (multi-valued ones a 0..2 element set).
/// Aggregations are deliberately left unset — delta objects stand
/// alone, they never reference StoreSpec indexes.
ObjectSpec MakeObject(const Schema& schema, ClassId id, std::uint64_t seed,
                      std::uint64_t salt, size_t pool) {
  const ClassDef& class_def = schema.class_def(id);
  ObjectSpec object;
  object.class_name = class_def.name();
  size_t attr_index = 0;
  for (const Attribute& attr : class_def.attributes()) {
    const std::uint64_t d = Draw(seed, salt * 131ULL + attr_index);
    ++attr_index;
    if (attr.type.is_class()) continue;
    if (attr.multi_valued) {
      std::vector<Value> elements;
      const size_t count = d % 3;
      for (size_t e = 0; e < count; ++e) {
        elements.push_back(
            PoolValue(attr.type.scalar, Draw(seed, d + e + 1), pool));
      }
      object.attrs[attr.name] = Value::Set(std::move(elements));
    } else {
      object.attrs[attr.name] = PoolValue(attr.type.scalar, d, pool);
    }
  }
  return object;
}

}  // namespace

std::string DeltaOp::ToString() const {
  switch (kind) {
    case Kind::kDelete:
      return StrCat("delete from S", side, " class ", class_name, " pick ",
                    pick);
    case Kind::kPhantomDelete:
    case Kind::kInsert: {
      std::string out =
          StrCat(kind == Kind::kInsert ? "insert" : "phantom-delete",
                 " into S", side, " ", object.class_name, " {");
      for (const auto& [name, value] : object.attrs) {
        out += StrCat(" ", name, ": ", value.ToString(), ";");
      }
      out += " }";
      return out;
    }
  }
  return "?";
}

size_t DeltaTrace::OpCount() const {
  size_t count = 0;
  for (const DeltaBatch& batch : batches) count += batch.ops.size();
  return count;
}

Result<DeltaTrace> GenerateDeltaTrace(const Schema& s1, const Schema& s2,
                                      const DeltaTraceGenOptions& options) {
  if (!s1.finalized() || !s2.finalized()) {
    return Status::FailedPrecondition("schemas must be finalized");
  }
  if (options.min_batches > options.max_batches ||
      options.max_ops_per_batch == 0) {
    return Status::InvalidArgument("inconsistent delta trace bounds");
  }
  DeltaTrace trace;
  const size_t num_batches =
      options.min_batches +
      Draw(options.seed, 0) %
          (options.max_batches - options.min_batches + 1);
  std::uint64_t op_salt = 1;
  for (size_t b = 0; b < num_batches; ++b) {
    DeltaBatch batch;
    const size_t num_ops =
        1 + Draw(options.seed, 0x100 + b) % options.max_ops_per_batch;
    for (size_t o = 0; o < num_ops; ++o, ++op_salt) {
      DeltaOp op;
      op.side = (Draw(options.seed, 0x200 + op_salt) % 2 == 0) ? 1 : 2;
      const Schema& schema = (op.side == 1) ? s1 : s2;
      const ClassId id = static_cast<ClassId>(
          Draw(options.seed, 0x300 + op_salt) % schema.NumClasses());
      // Inserts dominate (~55%) with a steady delete stream (~35%) and
      // the occasional phantom delete (~10%).
      const std::uint64_t roll = Draw(options.seed, 0x400 + op_salt) % 20;
      if (roll < 11) {
        op.kind = DeltaOp::Kind::kInsert;
        op.object = MakeObject(schema, id, options.seed, op_salt,
                               options.value_pool);
      } else if (roll < 18) {
        op.kind = DeltaOp::Kind::kDelete;
        op.class_name = schema.class_def(id).name();
        op.pick = Draw(options.seed, 0x500 + op_salt);
      } else {
        op.kind = DeltaOp::Kind::kPhantomDelete;
        op.object = MakeObject(schema, id, options.seed,
                               0x8000ULL + op_salt, options.value_pool);
      }
      batch.ops.push_back(std::move(op));
    }
    trace.batches.push_back(std::move(batch));
  }
  return trace;
}

std::string DeltaTraceToText(const DeltaTrace& trace) {
  std::string out = StrCat("# delta trace: ", trace.batches.size(),
                           " batches, ", trace.OpCount(), " ops\n");
  for (size_t b = 0; b < trace.batches.size(); ++b) {
    out += StrCat("batch ", b, " {\n");
    for (const DeltaOp& op : trace.batches[b].ops) {
      out += StrCat("  ", op.ToString(), "\n");
    }
    out += "}\n";
  }
  return out;
}

}  // namespace ooint
