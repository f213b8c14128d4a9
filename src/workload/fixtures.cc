#include "workload/fixtures.h"

#include <iterator>

#include "common/hash.h"
#include "common/string_util.h"
#include "workload/generator.h"

namespace ooint {

namespace {

Status FinalizeBoth(Fixture* fixture) {
  OOINT_RETURN_IF_ERROR(fixture->s1.Finalize());
  OOINT_RETURN_IF_ERROR(fixture->s2.Finalize());
  return Status::OK();
}

}  // namespace

Result<Fixture> MakeUniversityFixture() {
  Fixture f;
  // S1.
  {
    ClassDef person("person");
    person.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("full_name", ValueKind::kString)
        .AddSetAttribute("interests", ValueKind::kString)
        .AddAttribute("city", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(person)).status());
    ClassDef student("student");
    student.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddAttribute("study_support", ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(student)).status());
    ClassDef lecturer("lecturer");
    lecturer.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("course", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(lecturer)).status());
    ClassDef ta("teaching_assistant");
    ta.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("hours", ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(ta)).status());
    OOINT_RETURN_IF_ERROR(f.s1.AddIsA("student", "person"));
    OOINT_RETURN_IF_ERROR(f.s1.AddIsA("lecturer", "person"));
    OOINT_RETURN_IF_ERROR(f.s1.AddIsA("teaching_assistant", "lecturer"));
  }
  // S2.
  {
    ClassDef human("human");
    human.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddSetAttribute("hobby", ValueKind::kString)
        .AddAttribute("street-number", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(human)).status());
    ClassDef employee("employee");
    employee.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("salary", ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(employee)).status());
    ClassDef faculty("faculty");
    faculty.AddAttribute("fssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddAttribute("income", ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(faculty)).status());
    ClassDef professor("professor");
    professor.AddAttribute("fssn#", ValueKind::kString)
        .AddAttribute("chair", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(professor)).status());
    OOINT_RETURN_IF_ERROR(f.s2.AddIsA("employee", "human"));
    OOINT_RETURN_IF_ERROR(f.s2.AddIsA("faculty", "employee"));
    OOINT_RETURN_IF_ERROR(f.s2.AddIsA("professor", "faculty"));
  }
  f.assertion_text = R"(
# Fig. 4(a): person and human are the same concept.
assert S1.person == S2.human {
  attr: S1.person.ssn# == S2.human.ssn#;
  attr: S1.person.full_name == S2.human.name;
  attr: S1.person.interests >= S2.human.hobby;
  attr: S1.person.city alpha(address) S2.human.street-number;
}
# Appendix A: lecturers are employees, more precisely faculty members.
assert S1.lecturer <= S2.employee;
assert S1.lecturer <= S2.faculty;
# Fig. 4(c): some students are faculty members (working students).
assert S1.student ~ S2.faculty {
  attr: S1.student.ssn# == S2.faculty.fssn#;
  attr: S1.student.name == S2.faculty.name;
  attr: S1.student.study_support ~ S2.faculty.income;
}
)";
  OOINT_RETURN_IF_ERROR(FinalizeBoth(&f));
  return f;
}

Result<Fixture> MakeGenealogyFixture() {
  Fixture f;
  {
    ClassDef parent("parent");
    parent.AddAttribute("Pssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddSetAttribute("children", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(parent)).status());
    ClassDef brother("brother");
    brother.AddAttribute("Bssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddSetAttribute("brothers", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(brother)).status());
  }
  {
    ClassDef uncle("uncle");
    uncle.AddAttribute("Ussn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddSetAttribute("niece_nephew", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(uncle)).status());
  }
  f.assertion_text = R"(
# Example 3: an uncle is a brother of a parent.
assert S1(parent, brother) -> S2.uncle {
  value(S1): S1.parent.Pssn# in S1.brother.brothers;
  attr: S1.brother.Bssn# == S2.uncle.Ussn#;
  attr: S1.brother.name == S2.uncle.name;
  attr: S1.parent.children >= S2.uncle.niece_nephew;
}
)";
  OOINT_RETURN_IF_ERROR(FinalizeBoth(&f));
  return f;
}

Status PopulateGenealogy(InstanceStore* s1_store, InstanceStore* s2_store,
                         size_t num_families, bool materialize_uncles) {
  for (size_t family = 0; family < num_families; ++family) {
    const std::string parent_ssn = StrCat("P", family);
    const std::string uncle_ssn = StrCat("U", family);
    const std::string child_a = StrCat("C", family, "a");
    const std::string child_b = StrCat("C", family, "b");
    {
      Result<Object*> parent = s1_store->NewObject("parent");
      if (!parent.ok()) return parent.status();
      parent.value()
          ->Set("Pssn#", Value::String(parent_ssn))
          .Set("name", Value::String(StrCat("parent_", family)))
          .Set("children", Value::Set({Value::String(child_a),
                                       Value::String(child_b)}));
    }
    {
      // The uncle, recorded in S1 as a brother whose `brothers` set
      // contains the parent.
      Result<Object*> brother = s1_store->NewObject("brother");
      if (!brother.ok()) return brother.status();
      brother.value()
          ->Set("Bssn#", Value::String(uncle_ssn))
          .Set("name", Value::String(StrCat("uncle_", family)))
          .Set("brothers", Value::Set({Value::String(parent_ssn)}));
    }
    if (materialize_uncles) {
      Result<Object*> uncle = s2_store->NewObject("uncle");
      if (!uncle.ok()) return uncle.status();
      uncle.value()
          ->Set("Ussn#", Value::String(uncle_ssn))
          .Set("name", Value::String(StrCat("uncle_", family)))
          .Set("niece_nephew", Value::Set({Value::String(child_a),
                                           Value::String(child_b)}));
    }
  }
  return Status::OK();
}

Result<Fixture> MakeBibliographyFixture() {
  Fixture f;
  {
    ClassDef person_info("person_info");
    person_info.AddAttribute("name", ValueKind::kString)
        .AddAttribute("birthday", ValueKind::kDate);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(person_info)).status());
    ClassDef book("Book");
    book.AddAttribute("ISBN", ValueKind::kString)
        .AddAttribute("title", ValueKind::kString)
        .AddClassAttribute("author", "person_info");
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(book)).status());
  }
  {
    ClassDef book_info("book_info");
    book_info.AddAttribute("ISBN", ValueKind::kString)
        .AddAttribute("title", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(book_info)).status());
    ClassDef author("Author");
    author.AddAttribute("name", ValueKind::kString)
        .AddAttribute("birthday", ValueKind::kDate)
        .AddClassAttribute("book", "book_info");
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(author)).status());
  }
  f.assertion_text = R"(
# Fig. 6(b): every Book yields an Author-side view of itself.
assert S1.Book -> S2.Author {
  attr: S1.Book.ISBN == S2.Author.book.ISBN;
  attr: S1.Book.title == S2.Author.book.title;
}
# Fig. 6(c): every Author yields a Book-side view.
assert S2.Author -> S1.Book {
  attr: S2.Author.name == S1.Book.author.name;
  attr: S2.Author.birthday == S1.Book.author.birthday;
}
)";
  OOINT_RETURN_IF_ERROR(FinalizeBoth(&f));
  return f;
}

Status PopulateBibliography(InstanceStore* s1_store, size_t num_books) {
  for (size_t i = 0; i < num_books; ++i) {
    Result<Object*> info = s1_store->NewObject("person_info");
    if (!info.ok()) return info.status();
    info.value()
        ->Set("name", Value::String(StrCat("author_", i)))
        .Set("birthday",
             Value::OfDate({1950 + static_cast<int>(i % 50), 1, 1}));
    const Oid info_oid = info.value()->oid();
    Result<Object*> book = s1_store->NewObject("Book");
    if (!book.ok()) return book.status();
    book.value()
        ->Set("ISBN", Value::String(StrCat("isbn-", i)))
        .Set("title", Value::String(StrCat("title_", i)))
        .Set("author", Value::OfOid(info_oid));
  }
  return Status::OK();
}

Result<Fixture> MakeCarFixture(size_t num_cars) {
  Fixture f;
  {
    ClassDef car1("car1");
    car1.AddAttribute("time", ValueKind::kString)
        .AddAttribute("car-name", ValueKind::kString)
        .AddAttribute("price", ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(car1)).status());
  }
  {
    ClassDef car2("car2");
    car2.AddAttribute("time", ValueKind::kString);
    for (size_t i = 1; i <= num_cars; ++i) {
      car2.AddAttribute(StrCat("car-name_", i), ValueKind::kInteger);
    }
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(car2)).status());
  }
  // Fig. 10: one decomposed derivation assertion per car attribute —
  // "car2's column car-name_i holds car1's price where car-name equals
  // the constant car-name_i".
  std::string text;
  for (size_t i = 1; i <= num_cars; ++i) {
    text += StrCat(
        "assert S2.car2 -> S1.car1 {\n",
        "  attr: S2.car2.time == S1.car1.time;\n",
        "  attr: S2.car2.car-name_", i, " <= S1.car1.price with ",
        "S1.car1.car-name == \"car-name_", i, "\";\n", "}\n");
  }
  f.assertion_text = std::move(text);
  OOINT_RETURN_IF_ERROR(FinalizeBoth(&f));
  return f;
}

Result<Fixture> MakeStockFixture() {
  Fixture f;
  {
    ClassDef stock_ma("stock-in-March-April");
    stock_ma.AddAttribute("stock-name", ValueKind::kString)
        .AddAttribute("price-in-March", ValueKind::kInteger)
        .AddAttribute("price-in-April", ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(stock_ma)).status());
  }
  {
    ClassDef stock("stock");
    stock.AddAttribute("time", ValueKind::kString)
        .AddAttribute("stock-name", ValueKind::kString)
        .AddAttribute("price", ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(stock)).status());
  }
  f.assertion_text = R"(
# Section 4.1: monthly price columns are inclusions of the generic price
# attribute, qualified by the month.
assert S2.stock -> S1.stock-in-March-April {
  attr: S1.stock-in-March-April.stock-name == S2.stock.stock-name;
  attr: S1.stock-in-March-April.price-in-March <= S2.stock.price with S2.stock.time == "March";
  attr: S1.stock-in-March-April.price-in-April <= S2.stock.price with S2.stock.time == "April";
}
)";
  OOINT_RETURN_IF_ERROR(FinalizeBoth(&f));
  return f;
}

Result<Fixture> MakeEmplDeptFixture() {
  Fixture f;
  {
    ClassDef empl("Empl");
    empl.AddAttribute("e_name", ValueKind::kString)
        .AddAggregation("work_in", "Dept", Cardinality::ManyToOne());
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(empl)).status());
    ClassDef dept("Dept");
    dept.AddAttribute("d_name", ValueKind::kString)
        .AddAggregation("manager", "Empl", Cardinality::ManyToOne());
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(dept)).status());
  }
  OOINT_RETURN_IF_ERROR(
      f.s2.AddClass(ClassDef("placeholder")).status());
  OOINT_RETURN_IF_ERROR(FinalizeBoth(&f));
  return f;
}

Result<Fixture> MakeShowcaseFixture() {
  Fixture f;
  {
    ClassDef person("person");
    person.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("full_name", ValueKind::kString)
        .AddSetAttribute("interests", ValueKind::kString)
        .AddAttribute("city", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(person)).status());
    ClassDef book("book");
    book.AddAttribute("ISBN", ValueKind::kString)
        .AddAttribute("title", ValueKind::kString)
        .AddAttribute("auther", ValueKind::kString)
        .AddAggregation("published_by", "publisher",
                        Cardinality::ManyToOne());
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(book)).status());
    ClassDef publisher("publisher");
    publisher.AddAttribute("pname", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(publisher)).status());
    ClassDef man("man");
    man.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddAttribute("occupation", ValueKind::kString)
        .AddAggregation("spouse", "person", Cardinality::OneToOne());
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(man)).status());
    ClassDef restaurant1("restaurant-1");
    restaurant1.AddAttribute("rname", ValueKind::kString)
        .AddAttribute("category", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s1.AddClass(std::move(restaurant1)).status());
    OOINT_RETURN_IF_ERROR(f.s1.AddIsA("man", "person"));
  }
  {
    ClassDef human("human");
    human.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddSetAttribute("hobby", ValueKind::kString)
        .AddAttribute("street-number", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(human)).status());
    ClassDef publication("publication");
    publication.AddAttribute("ISBN", ValueKind::kString)
        .AddAttribute("title", ValueKind::kString)
        .AddAttribute("contributors", ValueKind::kString)
        .AddAggregation("published_by", "press", Cardinality::ManyToOne());
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(publication)).status());
    ClassDef press("press");
    press.AddAttribute("pname", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(press)).status());
    ClassDef woman("woman");
    woman.AddAttribute("ssn#", ValueKind::kString)
        .AddAttribute("name", ValueKind::kString)
        .AddAttribute("occupation", ValueKind::kString)
        .AddAggregation("spouse", "human", Cardinality::OneToOne());
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(woman)).status());
    ClassDef restaurant2("restaurant-2");
    restaurant2.AddAttribute("rname", ValueKind::kString)
        .AddAttribute("cuisine", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(f.s2.AddClass(std::move(restaurant2)).status());
    OOINT_RETURN_IF_ERROR(f.s2.AddIsA("woman", "human"));
  }
  f.assertion_text = R"(
assert S1.person == S2.human {
  attr: S1.person.ssn# == S2.human.ssn#;
  attr: S1.person.full_name == S2.human.name;
  attr: S1.person.interests >= S2.human.hobby;
  attr: S1.person.city alpha(address) S2.human.street-number;
}
assert S1.book <= S2.publication {
  attr: S1.book.ISBN == S2.publication.ISBN;
  attr: S1.book.title == S2.publication.title;
  attr: S1.book.auther <= S2.publication.contributors;
  agg: S1.book.published_by == S2.publication.published_by;
}
assert S1.publisher == S2.press {
  attr: S1.publisher.pname == S2.press.pname;
}
assert S1.man ! S2.woman {
  attr: S1.man.ssn# == S2.woman.ssn#;
  attr: S1.man.name == S2.woman.name;
  attr: S1.man.occupation == S2.woman.occupation;
  agg: S1.man.spouse rev S2.woman.spouse;
}
assert S1.restaurant-1 == S2.restaurant-2 {
  attr: S1.restaurant-1.rname == S2.restaurant-2.rname;
  attr: S2.restaurant-2.cuisine beta S1.restaurant-1.category;
}
)";
  OOINT_RETURN_IF_ERROR(FinalizeBoth(&f));
  return f;
}

Result<FederationFixture> MakeWorkforceFederation(size_t num_schemas) {
  FederationFixture f;
  for (size_t i = 0; i < num_schemas; ++i) {
    Schema schema(StrCat("S", i));
    ClassDef person(StrCat("person", i));
    person.AddAttribute("ssn", ValueKind::kString)
        .AddAttribute(StrCat("extra", i), ValueKind::kInteger);
    OOINT_RETURN_IF_ERROR(schema.AddClass(std::move(person)).status());
    ClassDef special(StrCat("special", i));
    special.AddAttribute("ssn", ValueKind::kString);
    OOINT_RETURN_IF_ERROR(schema.AddClass(std::move(special)).status());
    OOINT_RETURN_IF_ERROR(
        schema.AddIsA(StrCat("special", i), StrCat("person", i)));
    OOINT_RETURN_IF_ERROR(schema.Finalize());
    f.schemas.push_back(std::move(schema));
  }
  for (size_t i = 0; i < num_schemas; ++i) {
    for (size_t j = i + 1; j < num_schemas; ++j) {
      const std::string lhs = StrCat("S", i, ".person", i);
      const std::string rhs = StrCat("S", j, ".person", j);
      f.assertion_text += StrCat("assert ", lhs, " == ", rhs, " {\n  attr: ",
                                 lhs, ".ssn == ", rhs, ".ssn;\n}\n");
    }
  }
  return f;
}

Result<FederationFixture> MakeRenameFederation(size_t num_schemas) {
  struct Component {
    const char* class_name;
    const char* asserted;  // renamed by each round's merge
    const char* own;       // accumulated unasserted
  };
  static constexpr Component kComponents[] = {
      {"a", "x", "p"}, {"b", "y", "q"}, {"c", "z", "r"}, {"d", "w", "s"}};
  if (num_schemas < 2 || num_schemas > std::size(kComponents)) {
    return Status::InvalidArgument(
        StrCat("rename federation takes 2 to 4 schemas, got ", num_schemas));
  }
  FederationFixture f;
  for (size_t k = 0; k < num_schemas; ++k) {
    const Component& c = kComponents[k];
    Schema schema(StrCat("S", k + 1));
    ClassDef class_def(c.class_name);
    class_def.AddAttribute(c.asserted, ValueKind::kString)
        .AddAttribute(c.own, ValueKind::kString);
    OOINT_RETURN_IF_ERROR(schema.AddClass(std::move(class_def)).status());
    OOINT_RETURN_IF_ERROR(schema.Finalize());
    f.schemas.push_back(std::move(schema));
    if (k == 0) continue;
    const Component& prev = kComponents[k - 1];
    const std::string lhs = StrCat("S", k, ".", prev.class_name);
    const std::string rhs = StrCat("S", k + 1, ".", c.class_name);
    f.assertion_text +=
        StrCat("assert ", lhs, " == ", rhs, " {\n  attr: ", lhs, ".",
               prev.asserted, " == ", rhs, ".", c.asserted, ";\n}\n");
  }
  return f;
}

Result<FederationFixture> MakeCounterpartFederation(size_t num_classes,
                                                    std::uint64_t seed) {
  SchemaGenOptions schema_options;
  schema_options.name = "S1";
  schema_options.class_prefix = "c";
  schema_options.num_classes = num_classes;
  schema_options.shape = IsAShape::kRandomDag;
  schema_options.max_parents = 2;
  schema_options.attrs_per_class = 2;
  schema_options.with_aggregations = false;
  schema_options.seed = seed;
  OOINT_ASSIGN_OR_RETURN(Schema s1, GenerateSchema(schema_options));
  OOINT_ASSIGN_OR_RETURN(Schema s2, GenerateCounterpartSchema(s1, "S2", "d"));
  AssertionGenOptions assertion_options;
  assertion_options.equivalence_fraction = 0.4;
  assertion_options.inclusion_fraction = 0.2;
  assertion_options.derivation_fraction = 0.4;
  assertion_options.seed = SplitMix64(seed);
  OOINT_ASSIGN_OR_RETURN(
      AssertionSet assertions,
      GenerateAssertions(s1, s2, "c", "d", assertion_options));
  FederationFixture f;
  f.schemas.push_back(std::move(s1));
  f.schemas.push_back(std::move(s2));
  f.assertion_text = assertions.ToString();
  return f;
}

}  // namespace ooint
