-- ORDER BY over the bulk relation, sorted by the one serial sort kernel
SELECT trades.cname, trades.amount FROM trades
WHERE trades.amount < 1000
ORDER BY trades.amount DESC, trades.cname LIMIT 25
