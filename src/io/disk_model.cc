#include "io/disk_model.h"

namespace hdidx::io {

size_t DiskModel::PointsPerPage(size_t dim) const {
  const size_t point_bytes = dim * sizeof(float);
  const size_t per_page = page_bytes / point_bytes;
  return per_page > 0 ? per_page : 1;
}

}  // namespace hdidx::io
