"""Self-tests for the serve client's HTTP response parsing.

Run from the repository root:  python3 -m unittest perfbench/test_serve_mixed.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import serve_mixed  # noqa: E402


class ParseResponse(unittest.TestCase):
    def test_status_and_body_up_to_content_length(self):
        data = (b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n"
                b"Content-Length: 13\r\nConnection: close\r\n\r\n"
                b'{"id":"j-1"}\ntrailing')
        self.assertEqual(serve_mixed.parse_response(data),
                         (202, b'{"id":"j-1"}\n'))

    def test_without_content_length_the_body_runs_to_end_of_stream(self):
        data = b"HTTP/1.1 200 OK\r\n\r\n{\"a\":1}"
        self.assertEqual(serve_mixed.parse_response(data), (200, b'{"a":1}'))

    def test_cut_short_body_is_an_error(self):
        data = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}"
        with self.assertRaises(serve_mixed.ServeError):
            serve_mixed.parse_response(data)

    def test_chunked_or_headerless_replies_are_errors(self):
        for data in (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}",
                     b"", b"garbage\r\n\r\n{}", b"HTTP/1.1 200 OK\r\n"):
            with self.assertRaises(serve_mixed.ServeError):
                serve_mixed.parse_response(data)


if __name__ == "__main__":
    unittest.main()
