#include "soc/sensors.hpp"

#include <algorithm>

namespace nextgov::soc {

Celsius virtual_device_temperature(Celsius battery, Celsius skin, Celsius big, Celsius little,
                                   Celsius gpu) noexcept {
  const double soc_max = std::max({big.value(), little.value(), gpu.value()});
  return Celsius{0.40 * battery.value() + 0.35 * skin.value() + 0.25 * soc_max};
}

}  // namespace nextgov::soc
