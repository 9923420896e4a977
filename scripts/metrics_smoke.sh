#!/bin/sh
# metrics-smoke: end-to-end check that a real tabula-server exposes a
# non-empty Prometheus exposition on GET /v1/metrics. Boots the server
# with a small cube, issues one query (so request counters have moved),
# scrapes, and fails on a non-200 status, an empty body, or a body
# missing the expected metric families. CI runs this via
# `make metrics-smoke`.
set -eu

PORT="${PORT:-18091}"
ADDR="127.0.0.1:${PORT}"
GO="${GO:-go}"
TMP="$(mktemp -d)"
SERVER_PID=""

cleanup() {
	if [ -n "${SERVER_PID}" ]; then
		kill "${SERVER_PID}" 2>/dev/null || true
		wait "${SERVER_PID}" 2>/dev/null || true
	fi
	rm -rf "${TMP}"
}
trap cleanup EXIT INT TERM

echo "metrics-smoke: building tabula-server ..."
"${GO}" build -o "${TMP}/tabula-server" ./cmd/tabula-server

"${TMP}/tabula-server" -addr "${ADDR}" -taxi-rows 5000 \
	-init 'CREATE TABLE smoke_cube AS SELECT payment_type, vendor_name, SAMPLING(*, 0.1) AS sample FROM nyctaxi GROUPBY CUBE(payment_type, vendor_name) HAVING mean_loss(fare_amount, Sam_global) > 0.1' \
	>"${TMP}/server.log" 2>&1 &
SERVER_PID=$!

# Wait for the listener (the init build runs before ListenAndServe).
up=""
for _ in $(seq 1 60); do
	if curl -fsS -o /dev/null "http://${ADDR}/healthz" 2>/dev/null; then
		up=1
		break
	fi
	if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
		echo "metrics-smoke: server exited during startup:" >&2
		cat "${TMP}/server.log" >&2
		exit 1
	fi
	sleep 0.5
done
if [ -z "${up}" ]; then
	echo "metrics-smoke: server never came up on ${ADDR}:" >&2
	cat "${TMP}/server.log" >&2
	exit 1
fi

# Move the query counters before scraping.
curl -fsS -o /dev/null "http://${ADDR}/v1/query" \
	-d '{"cube":"smoke_cube","where":{"payment_type":"cash"}}'

STATUS="$(curl -sS -o "${TMP}/metrics.txt" -w '%{http_code}' "http://${ADDR}/v1/metrics")"
if [ "${STATUS}" != "200" ]; then
	echo "metrics-smoke: GET /v1/metrics returned ${STATUS}" >&2
	cat "${TMP}/metrics.txt" >&2
	exit 1
fi
if [ ! -s "${TMP}/metrics.txt" ]; then
	echo "metrics-smoke: GET /v1/metrics returned an empty body" >&2
	exit 1
fi
for family in \
	tabula_http_requests_total \
	tabula_http_request_duration_seconds \
	tabula_db_queries_total \
	tabula_wire_fill_seconds \
	tabula_build_stage_seconds \
	tabula_samgraph_pairs_total \
	tabula_samgraph_cover_tests_total \
	tabula_samgraph_summaries_total \
	tabula_samgraph_pairs_pruned_total \
	tabula_sampling_greedy_runs_total \
	tabula_cube_version; do
	if ! grep -q "^${family}" "${TMP}/metrics.txt"; then
		echo "metrics-smoke: exposition is missing ${family}" >&2
		exit 1
	fi
done

lines="$(wc -l <"${TMP}/metrics.txt")"
echo "metrics-smoke: ok (${lines} exposition lines)"
