#ifndef OOINT_WORKLOAD_FIXTURES_H_
#define OOINT_WORKLOAD_FIXTURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "model/instance_store.h"
#include "model/schema.h"

namespace ooint {

/// Deterministic reconstructions of every worked example in the paper.
/// Each fixture bundles the two local schemas and the assertion text (in
/// the library's assertion language) describing their correspondences.
struct Fixture {
  Schema s1{"S1"};
  Schema s2{"S2"};
  std::string assertion_text;
};

/// Fig. 18 / Appendix A: the university schemas.
///   S1: person ⊃ {student, lecturer ⊃ teaching_assistant}
///   S2: human ⊃ employee ⊃ faculty ⊃ professor
/// with person ≡ human, lecturer ⊆ employee, lecturer ⊆ faculty and
/// student ∩ faculty.
Result<Fixture> MakeUniversityFixture();

/// Example 3 / 9 / Appendix B: the genealogy schemas.
///   S1: parent(Pssn#, name, children), brother(Bssn#, name, brothers)
///   S2: uncle(Ussn#, name, niece_nephew)
/// with S1(parent, brother) → S2.uncle.
Result<Fixture> MakeGenealogyFixture();

/// Populates the genealogy stores with `num_families` families:
/// family f has one parent P_f, children C_f_0..C_f_1, and the parent
/// has one brother U_f — so U_f is the uncle of C_f_*. The S2 store is
/// left empty (uncles are derivable, the point of Appendix B) unless
/// `materialize_uncles` is set.
Status PopulateGenealogy(InstanceStore* s1_store, InstanceStore* s2_store,
                         size_t num_families, bool materialize_uncles = false);

/// Examples 1 / 4 / 11: the bibliography schemas with nested structured
/// attributes.
///   S1: Book(ISBN, title, author: <name, birthday>)
///   S2: Author(name, birthday, book: <ISBN, title>)
/// with the two derivation assertions of Fig. 6(b)/(c).
Result<Fixture> MakeBibliographyFixture();

/// Populates the bibliography stores with `num_books` books (each with
/// one author); only S1 holds data — S2's authors are derivable.
Status PopulateBibliography(InstanceStore* s1_store, size_t num_books);

/// Examples 5 / 10: the car-price schematic discrepancy.
///   S1: car1(time, car-name, price)
///   S2: car2(time, car-name_1: integer, ..., car-name_<n>: integer)
/// with the decomposed derivation assertions of Fig. 10 (S2 → S1
/// direction, one per car attribute).
Result<Fixture> MakeCarFixture(size_t num_cars = 3);

/// Section 4.1: the stock attribute-inclusion example with `with`
/// qualifiers.
///   S1: stock-in-March-April(stock-name, price-in-March, price-in-April)
///   S2: stock(time, stock-name, price)
Result<Fixture> MakeStockFixture();

/// Section 2: the Empl/Dept schema behind the department-manager rule
/// and the "interesting pair" problem (single schema; s2 is a trivial
/// empty placeholder).
Result<Fixture> MakeEmplDeptFixture();

/// Fig. 4: the person/human, book/publication, faculty/student and
/// man/woman assertion showcase (all four assertion kinds with
/// attribute, composed-into, more-specific and reverse-aggregation
/// correspondences).
Result<Fixture> MakeShowcaseFixture();

/// Several component schemas and the assertion text relating them: the
/// input of the multi-round integration of Fig. 2.
struct FederationFixture {
  std::vector<Schema> schemas;
  std::string assertion_text;
};

/// E8 (Fig. 2): `num_schemas` workforce schemas S0..S<n-1>. Si holds
/// person<i>(ssn, extra<i>) with subclass special<i>(ssn), and every
/// pair of person classes is equivalent on ssn.
Result<FederationFixture> MakeWorkforceFederation(size_t num_schemas);

/// Attribute renames across rounds: `num_schemas` (2 to 4) schemas
/// S1.a(x, p), S2.b(y, q), S3.c(z, r), S4.d(w, s) chained by
/// equivalences a == b, b == c and c == d on x == y, y == z and z == w.
/// Each round merges the asserted attributes into a renamed one
/// (x_y, then x_y_z, ...), so a later round's assertion names an
/// attribute that an earlier round renamed.
Result<FederationFixture> MakeRenameFederation(size_t num_schemas);

/// A generated counterpart pair as the e2ebench connect world builds it:
/// S1 is a `num_classes`-class random is-a DAG (at most 2 parents, 2
/// attributes per class, no aggregations), S2 its counterpart (classes
/// d<i>), with a 0.4 equivalence / 0.2 inclusion / 0.4 derivation
/// assertion mix. `seed` draws the schema and the assertions.
Result<FederationFixture> MakeCounterpartFederation(size_t num_classes,
                                                    std::uint64_t seed);

}  // namespace ooint

#endif  // OOINT_WORKLOAD_FIXTURES_H_
