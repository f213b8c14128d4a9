// fedshell: a small federated-query shell over the full text toolchain —
// schema-definition files, assertion files, data files and the query
// language.
//
//   ./build/examples/fedshell --schema s1.schema --schema s2.schema
//       --data S1=s1.data --data S2=s2.data --assertions corr.assert
//       --query '?- S2.uncle(niece_nephew: "ssn-ann", Ussn#: who)'
//
// Run without arguments to use the built-in genealogy demo; without
// --query, queries are read from stdin (one per line; empty line or
// EOF quits).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "federation/explain.h"
#include "federation/query_parser.h"
#include "integrate/consistency.h"
#include "model/instance_parser.h"
#include "model/schema_parser.h"

namespace {

void Die(const ooint::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(ooint::Result<T> result) {
  if (!result.ok()) Die(result.status());
  return std::move(result).value();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die(ooint::Status::NotFound("cannot open " + path));
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- Built-in demo inputs (the paper's genealogy example) -------------

constexpr const char* kDemoSchema1 = R"(
schema S1 {
  class parent {
    Pssn#: string;
    name: string;
    children: {string};
  }
  class brother {
    Bssn#: string;
    name: string;
    brothers: {string};
  }
}
)";

constexpr const char* kDemoSchema2 = R"(
schema S2 {
  class uncle {
    Ussn#: string;
    name: string;
    niece_nephew: {string};
  }
}
)";

constexpr const char* kDemoData1 = R"(
insert parent {
  Pssn#: "ssn-john"; name: "John";
  children: {"ssn-ann", "ssn-bob"};
}
insert brother {
  Bssn#: "ssn-sam"; name: "Sam";
  brothers: {"ssn-john"};
}
)";

constexpr const char* kDemoAssertions = R"(
assert S1(parent, brother) -> S2.uncle {
  value(S1): S1.parent.Pssn# in S1.brother.brothers;
  attr: S1.brother.Bssn# == S2.uncle.Ussn#;
  attr: S1.brother.name == S2.uncle.name;
  attr: S1.parent.children >= S2.uncle.niece_nephew;
}
)";

constexpr const char* kDemoQuery =
    R"(?- S2.uncle(niece_nephew: "ssn-ann", Ussn#: who, name: name))";

struct Options {
  std::vector<std::string> schema_files;
  std::vector<std::pair<std::string, std::string>> data_files;  // schema=path
  std::string assertion_file;
  std::vector<std::string> queries;
  bool demo = false;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) Die(ooint::Status::InvalidArgument(arg + " needs a value"));
      return argv[i];
    };
    if (arg == "--schema") {
      options.schema_files.push_back(next());
    } else if (arg == "--data") {
      const std::string value = next();
      const size_t eq = value.find('=');
      if (eq == std::string::npos) {
        Die(ooint::Status::InvalidArgument("--data expects SCHEMA=path"));
      }
      options.data_files.emplace_back(value.substr(0, eq),
                                      value.substr(eq + 1));
    } else if (arg == "--assertions") {
      options.assertion_file = next();
    } else if (arg == "--query") {
      options.queries.push_back(next());
    } else if (arg == "--help") {
      std::printf(
          "usage: fedshell --schema FILE... --assertions FILE "
          "[--data SCHEMA=FILE...] [--query TEXT...]\n"
          "Run without arguments for the built-in genealogy demo.\n");
      std::exit(0);
    } else {
      Die(ooint::Status::InvalidArgument("unknown flag " + arg));
    }
  }
  options.demo = options.schema_files.empty();
  return options;
}

void PrintAnswers(const std::vector<ooint::Bindings>& answers) {
  if (answers.empty()) {
    std::printf("  (no answers)\n");
    return;
  }
  for (const ooint::Bindings& row : answers) {
    std::string line = "  ";
    for (const auto& [var, value] : row) {
      line += var + " = " + value.ToString() + "  ";
    }
    std::printf("%s\n", line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);

  // 1. Schemas.
  std::vector<std::string> schema_texts;
  std::string assertion_text;
  std::vector<std::pair<std::string, std::string>> data_texts;
  if (options.demo) {
    std::printf("(no --schema given: running the built-in genealogy demo)\n");
    schema_texts = {kDemoSchema1, kDemoSchema2};
    assertion_text = kDemoAssertions;
    data_texts = {{"S1", kDemoData1}};
    options.queries.push_back(kDemoQuery);
  } else {
    for (const std::string& path : options.schema_files) {
      schema_texts.push_back(ReadFile(path));
    }
    if (options.assertion_file.empty()) {
      Die(ooint::Status::InvalidArgument("--assertions is required"));
    }
    assertion_text = ReadFile(options.assertion_file);
    for (const auto& [schema, path] : options.data_files) {
      data_texts.emplace_back(schema, ReadFile(path));
    }
  }

  ooint::Fsm fsm;
  std::vector<ooint::Schema> parsed;
  for (const std::string& text : schema_texts) {
    parsed.push_back(Unwrap(ooint::SchemaParser::Parse(text)));
  }
  for (ooint::Schema& schema : parsed) {
    const std::string name = schema.name();
    auto agent = Unwrap(ooint::FsmAgent::Create(
        "agent-" + name, "ooint", name + "-db", std::move(schema)));
    if (auto s = fsm.RegisterAgent(std::move(agent)); !s.ok()) Die(s);
  }

  // 2. Data.
  for (const auto& [schema, text] : data_texts) {
    ooint::FsmAgent* agent = fsm.FindAgent(schema);
    if (agent == nullptr) {
      Die(ooint::Status::NotFound("--data references unknown schema " +
                                  schema));
    }
    const size_t n = Unwrap(ooint::InstanceParser::Load(text, &agent->store()));
    std::printf("loaded %zu object(s) into %s\n", n, schema.c_str());
  }

  // 3. Assertions + consistency report.
  if (auto s = fsm.DeclareAssertions(assertion_text); !s.ok()) Die(s);
  const auto findings = Unwrap(fsm.CheckAllConsistency());
  for (const ooint::ConsistencyFinding& finding : findings) {
    std::printf("consistency: %s\n", finding.ToString().c_str());
  }
  if (ooint::HasErrors(findings)) {
    Die(ooint::Status::FailedPrecondition(
        "assertion set is inconsistent; refusing to integrate"));
  }

  // 4. Integrate and report.
  ooint::FsmClient client(&fsm);
  if (auto s = client.Connect(); !s.ok()) Die(s);
  std::printf("\n== global schema ==\n%s\n",
              client.global().schema.ToString().c_str());
  std::printf("== stats ==\n%s\n\n",
              client.global().total_stats.ToString().c_str());

  // 5. Queries: from --query flags, then interactively.
  for (const std::string& query : options.queries) {
    std::printf("%s\n", query.c_str());
    // Show the decomposition first: which agents and rules the query
    // touches. A materialized client's plan depends only on the class.
    if (ooint::Result<ooint::ParsedQuery> parsed = ooint::ParseQuery(query);
        parsed.ok()) {
      if (ooint::Result<std::string> global_name = client.GlobalNameOf(
              parsed.value().schema, parsed.value().class_name);
          global_name.ok()) {
        const ooint::QueryPlan plan =
            Unwrap(client.Explain(ooint::Query(global_name.value())));
        std::printf("%s\n", plan.ToString().c_str());
      }
    }
    ooint::Result<std::vector<ooint::Bindings>> answers =
        ooint::RunTextQuery(client, query);
    if (!answers.ok()) {
      std::printf("  error: %s\n", answers.status().ToString().c_str());
      continue;
    }
    PrintAnswers(answers.value());
  }
  if (options.queries.empty()) {
    std::printf("enter queries, e.g. "
                "?- S2.uncle(niece_nephew: \"ssn-ann\", Ussn#: who)\n");
    std::string line;
    while (std::printf("> ") && std::getline(std::cin, line)) {
      if (line.empty()) break;
      ooint::Result<std::vector<ooint::Bindings>> answers =
          ooint::RunTextQuery(client, line);
      if (!answers.ok()) {
        std::printf("  error: %s\n", answers.status().ToString().c_str());
        continue;
      }
      PrintAnswers(answers.value());
    }
  }
  return 0;
}
