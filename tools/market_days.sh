#!/usr/bin/env bash
# Write the market days the CI runs into DIR:
#   DIR/feeder30/feeder.glm            the generated 30-house feeder, with its weather file
#   DIR/feeder30/attack{1,2,3}.glm     that day under SELLER_PRICE_OVERRIDE, BUYER_BID_SCALE
#                                      and LINE_STATUS, 10:00-12:00
#   DIR/two-auctions.glm               tests/fixtures/feeder_small.glm over a whole day, with a
#                                      second auction and one controller in each
# Run from the repository root with the tree's sources on the path:
#     PYTHONPATH=src bash tools/market_days.sh DIR
set -eo pipefail
out=${1:?usage: bash tools/market_days.sh DIR}
python -m tesgrid gen-feeder --houses 30 --out "$out/feeder30" > /dev/null
i=0
for params in 'kind SELLER_PRICE_OVERRIDE; fraction 0.2; price 0.5 $/kWh;' \
              'kind BUYER_BID_SCALE; lambda 0.2;' \
              'kind LINE_STATUS; lines trunk; status OPEN;'; do
  i=$((i + 1))
  { cat "$out/feeder30/feeder.glm"
    echo "attack { name a; start \"2013-07-01 10:00:00\"; end \"2013-07-01 12:00:00\"; $params }"; } > "$out/feeder30/attack$i.glm"
done
{ sed 's/stop "2013-07-01 01:00:00";/stop "2013-07-02 00:00:00";/' tests/fixtures/feeder_small.glm
  echo 'object auction { name A2; period 600 s; price_cap 0.5 $/kWh; init_price 0.2 $/kWh; }'
  echo 'object generator_seller { name g2; market A2; price 0.12 $/kWh; capacity 3 kW; }'
  echo 'object controller { name c1; house h1; market A1; t_min 65 degF; t_base 72 degF; t_max 80 degF; k_ramp 2; }'
  echo 'object controller { name c3; house h3; market A2; t_min 65 degF; t_base 72 degF; t_max 80 degF; k_ramp 2; }'
  for auction in A1 A2; do
    echo "recorder { name r$auction; target $auction; property clearing_price, cleared_quantity; interval 300 s; file $auction.csv; }"
  done
} > "$out/two-auctions.glm"
grep -q 'stop "2013-07-02 00:00:00";' "$out/two-auctions.glm"
