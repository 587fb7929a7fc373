#include "data/csv_io.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/csv.h"

namespace uclust::data {

common::Status SaveDeterministic(const std::string& path,
                                 const DeterministicDataset& dataset) {
  UCLUST_RETURN_NOT_OK(dataset.Validate());
  std::vector<std::string> header;
  for (std::size_t j = 0; j < dataset.dims(); ++j) {
    std::string name = "x";
    name += std::to_string(j);
    header.push_back(std::move(name));
  }
  const bool labeled = !dataset.labels.empty();
  if (labeled) header.push_back("label");
  std::vector<std::vector<double>> rows;
  rows.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    std::vector<double> row = dataset.points[i];
    if (labeled) row.push_back(static_cast<double>(dataset.labels[i]));
    rows.push_back(std::move(row));
  }
  return common::WriteCsv(path, header, rows);
}

common::Result<DeterministicDataset> LoadDeterministic(const std::string& path,
                                                       bool has_labels) {
  auto table_result = common::ReadCsv(path, /*has_header=*/true);
  if (!table_result.ok()) return table_result.status();
  const common::CsvTable table = std::move(table_result).ValueOrDie();

  DeterministicDataset out;
  out.name = path;
  int max_label = -1;
  for (const auto& row : table.rows) {
    if (has_labels && row.empty()) {
      return common::Status::InvalidArgument(path + ": empty row");
    }
    std::vector<double> point = row;
    if (has_labels) {
      const double raw = point.back();
      point.pop_back();
      const int label = static_cast<int>(std::llround(raw));
      if (label < 0 || std::fabs(raw - label) > 1e-9) {
        return common::Status::InvalidArgument(path +
                                               ": non-integer label cell");
      }
      out.labels.push_back(label);
      max_label = std::max(max_label, label);
    }
    out.points.push_back(std::move(point));
  }
  out.num_classes = max_label + 1;
  UCLUST_RETURN_NOT_OK(out.Validate());
  return out;
}

}  // namespace uclust::data
