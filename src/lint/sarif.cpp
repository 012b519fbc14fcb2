// SARIF 2.1.0 export, shared by `craft lint` and `craft prove` so CI can upload
// both reports through github/codeql-action/upload-sarif and have findings
// annotate pull requests.
//
// Elaborated designs have no source file/line, so every result anchors on a
// stable pseudo-artifact URI derived from the design name plus logical
// locations carrying the hierarchical path — valid SARIF, and enough for the
// code-scanning UI to group findings by design and rule.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "support/json.hpp"

namespace craft::lint {

namespace {

const char* SarifLevel(Severity s) {
  switch (s) {
    case Severity::kInfo: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "none";
}

}  // namespace

std::string FormatSarif(
    const std::string& tool_name, const std::string& tool_version,
    const std::vector<std::pair<std::string, std::vector<Finding>>>& reports) {
  // Rule table: one reportingDescriptor per distinct rule id, in first-seen
  // order, with a stable index for result.ruleIndex.
  std::vector<std::string> rule_ids;
  std::map<std::string, std::size_t> rule_index;
  for (const auto& [design, findings] : reports) {
    for (const Finding& f : findings) {
      if (rule_index.emplace(f.rule, rule_ids.size()).second) {
        rule_ids.push_back(f.rule);
      }
    }
  }

  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"" << json::Escape(tool_name) << "\",\n"
     << "          \"version\": \"" << json::Escape(tool_version) << "\",\n"
     << "          \"informationUri\": \"https://example.invalid/craft-flow\",\n"
     << "          \"rules\": [";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n            {\"id\": \"" << json::Escape(rule_ids[i])
       << "\", \"name\": \"" << json::Escape(rule_ids[i])
       << "\", \"shortDescription\": {\"text\": \"" << json::Escape(rule_ids[i])
       << "\"}}";
  }
  os << (rule_ids.empty() ? "" : "\n          ") << "]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [";
  bool first = true;
  for (const auto& [design, findings] : reports) {
    for (const Finding& f : findings) {
      os << (first ? "" : ",") << "\n        {\n"
         << "          \"ruleId\": \"" << json::Escape(f.rule) << "\",\n"
         << "          \"ruleIndex\": " << rule_index[f.rule] << ",\n"
         << "          \"level\": \"" << SarifLevel(f.severity) << "\",\n"
         << "          \"message\": {\"text\": \"[" << json::Escape(design) << "] "
         << json::Escape(f.path) << ": " << json::Escape(f.message) << "\"},\n"
         << "          \"locations\": [\n"
         << "            {\n"
         << "              \"physicalLocation\": {\n"
         << "                \"artifactLocation\": {\"uri\": \"designs/"
         << json::Escape(design) << "\"},\n"
         << "                \"region\": {\"startLine\": 1, \"startColumn\": 1}\n"
         << "              },\n"
         << "              \"logicalLocations\": [\n"
         << "                {\"fullyQualifiedName\": \"" << json::Escape(f.path)
         << "\", \"kind\": \"module\"}\n"
         << "              ]\n"
         << "            }\n"
         << "          ],\n"
         << "          \"partialFingerprints\": {\"craftFinding/v1\": \""
         << json::Escape(design) << "|" << json::Escape(f.rule) << "|" << json::Escape(f.path)
         << "\"}\n"
         << "        }";
      first = false;
    }
  }
  os << (first ? "" : "\n      ") << "]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

}  // namespace craft::lint
